// Scalar reference kernels: the arithmetic ground truth every SIMD tier
// must match bit-for-bit. Per column, each loop is the exact operation
// order of the pre-dispatch ApplyChain code: CSR sweeps stream each
// row's entries once per kColChunk-wide column group with per-column
// accumulators, and k == 1 keeps the single-register accumulator of the
// original hot path.
//
// Templated over the stored value type T, and ACCUMULATION IS NATIVE T:
// the fp64 instantiation computes in double (operation for operation the
// pre-template code), the fp32 instantiation computes in float. Native
// fp32 arithmetic is what lets the vector tiers pack twice the lanes per
// register — widen-on-load designs keep fp64 lane counts and measure at
// ~1.0x; the accuracy cost is owned by the fp64 refinement loop above
// the chain (docs/PERFORMANCE.md "Precision modes").
//
// Compiled with the library's baseline flags — no -march, no contraction
// surprises.
#include <algorithm>

#include "linalg/kernels/kernels_tables.hpp"

namespace parlap::kernels {

namespace scalar_impl {

namespace {
/// Column-chunk width of the CSR row kernels (matches the pre-dispatch
/// apply code): per row, up to kColChunk columns accumulate in a stack
/// buffer while the row's entries stream once.
constexpr std::size_t kColChunk = 8;
}  // namespace

template <typename T>
void csr_jacobi(std::size_t lo, std::size_t hi, std::size_t k,
                const EdgeId* off, const Vertex* nbr, const T* w,
                const T* inv_x, const T* y_diag, const T* xb,
                const T* cur, T* tmp) {
  if (k == 1) {
    for (std::size_t i = lo; i < hi; ++i) {
      const EdgeId plo = off[i];
      const EdgeId phi = off[i + 1];
      T acc = static_cast<T>(y_diag[i] * cur[i]);
      for (EdgeId p = plo; p < phi; ++p) {
        acc = static_cast<T>(
            acc -
            w[static_cast<std::size_t>(p)] *
                cur[static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)])]);
      }
      tmp[i] = static_cast<T>(xb[i] - inv_x[i] * acc);
    }
    return;
  }
  for (std::size_t i = lo; i < hi; ++i) {
    const EdgeId plo = off[i];
    const EdgeId phi = off[i + 1];
    for (std::size_t c0 = 0; c0 < k; c0 += kColChunk) {
      const std::size_t cw = std::min(kColChunk, k - c0);
      T acc[kColChunk];
      for (std::size_t cc = 0; cc < cw; ++cc) {
        acc[cc] = static_cast<T>(y_diag[i] * cur[i * k + c0 + cc]);
      }
      for (EdgeId p = plo; p < phi; ++p) {
        const auto t = static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)]);
        const T wp = w[static_cast<std::size_t>(p)];
        for (std::size_t cc = 0; cc < cw; ++cc) {
          acc[cc] = static_cast<T>(acc[cc] - wp * cur[t * k + c0 + cc]);
        }
      }
      for (std::size_t cc = 0; cc < cw; ++cc) {
        tmp[i * k + c0 + cc] =
            static_cast<T>(xb[i * k + c0 + cc] - inv_x[i] * acc[cc]);
      }
    }
  }
}

template <typename T>
void csr_fwd(std::size_t lo, std::size_t hi, std::size_t k, const EdgeId* off,
             const Vertex* nbr, const T* w, const Vertex* idx, const T* src,
             T* out) {
  if (k == 1) {
    for (std::size_t j = lo; j < hi; ++j) {
      const EdgeId plo = off[j];
      const EdgeId phi = off[j + 1];
      T& row = out[static_cast<std::size_t>(idx[j])];
      T acc = row;
      for (EdgeId p = plo; p < phi; ++p) {
        acc = static_cast<T>(
            acc +
            w[static_cast<std::size_t>(p)] *
                src[static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)])]);
      }
      row = acc;
    }
    return;
  }
  for (std::size_t j = lo; j < hi; ++j) {
    const auto sj = static_cast<std::size_t>(idx[j]);
    const EdgeId plo = off[j];
    const EdgeId phi = off[j + 1];
    for (std::size_t c0 = 0; c0 < k; c0 += kColChunk) {
      const std::size_t cw = std::min(kColChunk, k - c0);
      T acc[kColChunk];
      for (std::size_t cc = 0; cc < cw; ++cc) {
        acc[cc] = out[sj * k + c0 + cc];
      }
      for (EdgeId p = plo; p < phi; ++p) {
        const auto t = static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)]);
        const T wp = w[static_cast<std::size_t>(p)];
        for (std::size_t cc = 0; cc < cw; ++cc) {
          acc[cc] = static_cast<T>(acc[cc] + wp * src[t * k + c0 + cc]);
        }
      }
      for (std::size_t cc = 0; cc < cw; ++cc) {
        out[sj * k + c0 + cc] = acc[cc];
      }
    }
  }
}

template <typename T>
void csr_bwd(std::size_t lo, std::size_t hi, std::size_t k, const EdgeId* off,
             const Vertex* nbr, const T* w, const T* src, T* out) {
  if (k == 1) {
    for (std::size_t i = lo; i < hi; ++i) {
      const EdgeId plo = off[i];
      const EdgeId phi = off[i + 1];
      T acc{};
      for (EdgeId p = plo; p < phi; ++p) {
        acc = static_cast<T>(
            acc -
            w[static_cast<std::size_t>(p)] *
                src[static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)])]);
      }
      out[i] = acc;
    }
    return;
  }
  for (std::size_t i = lo; i < hi; ++i) {
    const EdgeId plo = off[i];
    const EdgeId phi = off[i + 1];
    for (std::size_t c0 = 0; c0 < k; c0 += kColChunk) {
      const std::size_t cw = std::min(kColChunk, k - c0);
      T acc[kColChunk] = {};
      for (EdgeId p = plo; p < phi; ++p) {
        const auto t = static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)]);
        const T wp = w[static_cast<std::size_t>(p)];
        for (std::size_t cc = 0; cc < cw; ++cc) {
          acc[cc] = static_cast<T>(acc[cc] - wp * src[t * k + c0 + cc]);
        }
      }
      for (std::size_t cc = 0; cc < cw; ++cc) {
        out[i * k + c0 + cc] = acc[cc];
      }
    }
  }
}

template <typename T>
constexpr KernelTableT<T> make_scalar_table() {
  return KernelTableT<T>{
      SimdLevel::kScalar,
      "scalar",
      &csr_jacobi<T>,
      &csr_fwd<T>,
      &csr_bwd<T>,
  };
}

}  // namespace scalar_impl

template <typename T>
const KernelTableT<T>& scalar_table() noexcept {
  static constexpr KernelTableT<T> table = scalar_impl::make_scalar_table<T>();
  return table;
}

template const KernelTableT<double>& scalar_table() noexcept;
template const KernelTableT<float>& scalar_table() noexcept;

}  // namespace parlap::kernels
