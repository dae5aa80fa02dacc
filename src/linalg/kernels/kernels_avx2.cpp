// AVX2 tier. Compiled with -mavx2 -ffp-contract=off on x86-64;
// elsewhere the tables are absent and dispatch stays scalar.
//
// Two traits share the kernel bodies: V4 (fp64 storage, 4 double lanes
// in __m256d) and V8F (fp32 storage, 8 NATIVE float lanes in __m256 —
// twice the columns per instruction, float lane arithmetic matching the
// fp32 scalar reference bit for bit; see kernels_vec_impl.hpp for why
// fp32 computes natively instead of widening to double).
#include "linalg/kernels/kernels_tables.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <type_traits>

#include "linalg/kernels/kernels_vec_impl.hpp"

namespace parlap::kernels {

namespace {

struct V4 {
  using reg = __m256d;
  using elem = double;
  static constexpr std::size_t W = 4;
  /// Narrow-panel (k < W) delegation target: this is the lowest vector
  /// tier, so it bottoms out at the scalar reference.
  static const KernelTable& lower() { return scalar_table(); }
  static reg zero() { return _mm256_setzero_pd(); }
  static reg set1(double x) { return _mm256_set1_pd(x); }
  static reg loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
};

struct V8F {
  using reg = __m256;
  using elem = float;
  static constexpr std::size_t W = 8;
  /// Narrow-panel (k < W) delegation target: this is the lowest vector
  /// tier, so it bottoms out at the scalar reference.
  static const KernelTableT<float>& lower() { return scalar_table<float>(); }
  static reg zero() { return _mm256_setzero_ps(); }
  /// Broadcast coefficients arrive as double; one narrowing per call
  /// site, mirroring the scalar reference (widened weights round-trip
  /// losslessly).
  static reg set1(double x) {
    return _mm256_set1_ps(static_cast<float>(x));
  }
  static reg loadu(const float* p) { return _mm256_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
};

/// The lane traits of storage type T.
template <typename T>
using Lanes = std::conditional_t<std::is_same_v<T, double>, V4, V8F>;

}  // namespace

}  // namespace parlap::kernels

#endif

namespace parlap::kernels {

template <typename T>
const KernelTableT<T>* avx2_table() noexcept {
#if defined(__AVX2__)
  static constexpr KernelTableT<T> table =
      make_table<Lanes<T>>(SimdLevel::kAvx2, "avx2");
  return &table;
#else
  return nullptr;
#endif
}

template const KernelTableT<double>* avx2_table() noexcept;
template const KernelTableT<float>* avx2_table() noexcept;

}  // namespace parlap::kernels

