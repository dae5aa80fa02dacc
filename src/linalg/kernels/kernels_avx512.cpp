// AVX-512 tier. Compiled with -mavx512f -ffp-contract=off on x86-64 (it
// uses only AVX-512F intrinsics); elsewhere the tables are absent and
// dispatch tops out at AVX2 or scalar.
//
// Two traits share the kernel bodies: V8 (fp64 storage, 8 double lanes
// in __m512d) and V16F (fp32 storage, 16 NATIVE float lanes in __m512 —
// twice the columns per instruction, float lane arithmetic matching the
// fp32 scalar reference bit for bit; see kernels_vec_impl.hpp for why
// fp32 computes natively instead of widening to double).
#include "linalg/kernels/kernels_tables.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <type_traits>

#include "linalg/kernels/kernels_vec_impl.hpp"

namespace parlap::kernels {

namespace {

struct V8 {
  using reg = __m512d;
  using elem = double;
  static constexpr std::size_t W = 8;
  /// Narrow-panel (k < W) delegation target: the AVX2 tier's half-width
  /// registers (any AVX-512 host runs AVX2; scalar is a build-paranoia
  /// fallback).
  static const KernelTable& lower() {
    const KernelTable* t = avx2_table();
    return t != nullptr ? *t : scalar_table();
  }
  static reg zero() { return _mm512_setzero_pd(); }
  static reg set1(double x) { return _mm512_set1_pd(x); }
  static reg loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
};

struct V16F {
  using reg = __m512;
  using elem = float;
  static constexpr std::size_t W = 16;
  /// Narrow-panel (k < W) delegation target: the AVX2 tier's 8-float
  /// __m256 pass — the common width-8 panel lands exactly there.
  static const KernelTableT<float>& lower() {
    const KernelTableT<float>* t = avx2_table<float>();
    return t != nullptr ? *t : scalar_table<float>();
  }
  static reg zero() { return _mm512_setzero_ps(); }
  /// Broadcast coefficients arrive as double; one narrowing per call
  /// site, mirroring the scalar reference (widened weights round-trip
  /// losslessly).
  static reg set1(double x) {
    return _mm512_set1_ps(static_cast<float>(x));
  }
  static reg loadu(const float* p) { return _mm512_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm512_storeu_ps(p, v); }
  static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_ps(a, b); }
};

/// The lane traits of storage type T.
template <typename T>
using Lanes = std::conditional_t<std::is_same_v<T, double>, V8, V16F>;

}  // namespace

}  // namespace parlap::kernels

#endif

namespace parlap::kernels {

template <typename T>
const KernelTableT<T>* avx512_table() noexcept {
#if defined(__AVX512F__)
  static constexpr KernelTableT<T> table =
      make_table<Lanes<T>>(SimdLevel::kAvx512, "avx512");
  return &table;
#else
  return nullptr;
#endif
}

template const KernelTableT<double>* avx512_table() noexcept;
template const KernelTableT<float>* avx512_table() noexcept;

}  // namespace parlap::kernels

