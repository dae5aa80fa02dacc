// Shared SIMD bodies of the chain apply's three sweeps, templated over a
// vector trait V (one per ISA tier and storage type). Included ONLY by
// the per-ISA translation units, which are compiled with the matching
// -m flags plus -ffp-contract=off.
//
// A trait names its STORED element type (V::elem: double or float) and
// its NATIVE vector register (V::reg): a double vector for fp64 traits,
// a float vector for fp32 traits. Lane arithmetic happens in elem
// precision, so the fp32 tiers pack TWICE the lanes per register
// (__m256 = 8 floats, __m512 = 16) — that lane doubling, not byte
// halving, is where the fp32 apply speedup comes from on compute-bound
// hosts (a widen-to-double design keeps fp64 lane counts and measures
// at ~1.0x). The accuracy cost of float arithmetic is owned by the fp64
// refinement loop above the chain. set1() takes a double and narrows it
// once per call site; every broadcast value is a widened elem, so the
// round trip is lossless.
//
// The bit-identity discipline, concretely:
//   * Each sweep puts one COLUMN per vector lane: a lane performs its
//     column's adds/subs/muls in exactly the scalar order, and
//     mul/add/sub intrinsics are never fused (no FMA intrinsics;
//     contraction disabled), so lane results equal the scalar kernel
//     bit-for-bit — per storage type (fp32 lanes match the fp32 scalar
//     reference, never the fp64 one).
//   * Remainder columns (k % W) fall back to the scalar pattern (elem
//     accumulator, same native arithmetic), which is the same operation
//     sequence by construction.
//   * k < W delegates to the NEXT LOWER tier (V::lower(): avx512 ->
//     avx2 -> scalar): a panel that fills no lanes here may exactly fill
//     the half-width register one tier down — the fp32 avx512 tier holds
//     16 float lanes, so the common width-8 panel lands on the avx2
//     tier's single __m256 pass instead of a per-column remainder loop.
//     The chain bottoms out at the scalar reference, whose dedicated
//     single-column register fast paths E19 measured 15-50% faster than
//     any vector tail at width 1. Same bits at every hop (all tiers
//     match the scalar reference per storage type), so delegation is a
//     pure scheduling choice.
#pragma once

#include <cstddef>

#include "linalg/kernels/kernels.hpp"
#include "linalg/kernels/kernels_tables.hpp"

namespace parlap::kernels {

template <class V>
struct VecKernels {
  using reg = typename V::reg;
  using elem = typename V::elem;
  static constexpr std::size_t W = V::W;

  static void csr_jacobi(std::size_t lo, std::size_t hi, std::size_t k,
                         const EdgeId* off, const Vertex* nbr, const elem* w,
                         const elem* inv_x, const elem* y_diag,
                         const elem* xb, const elem* cur, elem* tmp) {
    if (k < W) {
      V::lower().csr_jacobi(lo, hi, k, off, nbr, w, inv_x, y_diag, xb, cur,
                            tmp);
      return;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const EdgeId plo = off[i];
      const EdgeId phi = off[i + 1];
      const elem ydi = y_diag[i];
      const elem xii = inv_x[i];
      const reg yd = V::set1(static_cast<double>(ydi));
      const reg xi = V::set1(static_cast<double>(xii));
      std::size_t c0 = 0;
      for (; c0 + W <= k; c0 += W) {
        reg acc = V::mul(yd, V::loadu(cur + i * k + c0));
        for (EdgeId p = plo; p < phi; ++p) {
          const auto t = static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)]);
          const reg wp = V::set1(static_cast<double>(w[static_cast<std::size_t>(p)]));
          acc = V::sub(acc, V::mul(wp, V::loadu(cur + t * k + c0)));
        }
        V::storeu(tmp + i * k + c0,
                  V::sub(V::loadu(xb + i * k + c0), V::mul(xi, acc)));
      }
      for (; c0 < k; ++c0) {
        elem acc = static_cast<elem>(ydi * cur[i * k + c0]);
        for (EdgeId p = plo; p < phi; ++p) {
          acc = static_cast<elem>(
              acc -
              w[static_cast<std::size_t>(p)] *
                  cur[static_cast<std::size_t>(
                          nbr[static_cast<std::size_t>(p)]) * k + c0]);
        }
        tmp[i * k + c0] = static_cast<elem>(xb[i * k + c0] - xii * acc);
      }
    }
  }

  static void csr_fwd(std::size_t lo, std::size_t hi, std::size_t k,
                      const EdgeId* off, const Vertex* nbr, const elem* w,
                      const Vertex* idx, const elem* src, elem* out) {
    if (k < W) {
      V::lower().csr_fwd(lo, hi, k, off, nbr, w, idx, src, out);
      return;
    }
    for (std::size_t j = lo; j < hi; ++j) {
      elem* row = out + static_cast<std::size_t>(idx[j]) * k;
      const EdgeId plo = off[j];
      const EdgeId phi = off[j + 1];
      std::size_t c0 = 0;
      for (; c0 + W <= k; c0 += W) {
        reg acc = V::loadu(row + c0);
        for (EdgeId p = plo; p < phi; ++p) {
          const auto t = static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)]);
          const reg wp = V::set1(static_cast<double>(w[static_cast<std::size_t>(p)]));
          acc = V::add(acc, V::mul(wp, V::loadu(src + t * k + c0)));
        }
        V::storeu(row + c0, acc);
      }
      for (; c0 < k; ++c0) {
        elem acc = row[c0];
        for (EdgeId p = plo; p < phi; ++p) {
          acc = static_cast<elem>(
              acc +
              w[static_cast<std::size_t>(p)] *
                  src[static_cast<std::size_t>(
                          nbr[static_cast<std::size_t>(p)]) * k + c0]);
        }
        row[c0] = acc;
      }
    }
  }

  static void csr_bwd(std::size_t lo, std::size_t hi, std::size_t k,
                      const EdgeId* off, const Vertex* nbr, const elem* w,
                      const elem* src, elem* out) {
    if (k < W) {
      V::lower().csr_bwd(lo, hi, k, off, nbr, w, src, out);
      return;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const EdgeId plo = off[i];
      const EdgeId phi = off[i + 1];
      std::size_t c0 = 0;
      for (; c0 + W <= k; c0 += W) {
        reg acc = V::zero();
        for (EdgeId p = plo; p < phi; ++p) {
          const auto t = static_cast<std::size_t>(nbr[static_cast<std::size_t>(p)]);
          const reg wp = V::set1(static_cast<double>(w[static_cast<std::size_t>(p)]));
          acc = V::sub(acc, V::mul(wp, V::loadu(src + t * k + c0)));
        }
        V::storeu(out + i * k + c0, acc);
      }
      for (; c0 < k; ++c0) {
        elem acc{};
        for (EdgeId p = plo; p < phi; ++p) {
          acc = static_cast<elem>(
              acc -
              w[static_cast<std::size_t>(p)] *
                  src[static_cast<std::size_t>(
                          nbr[static_cast<std::size_t>(p)]) * k + c0]);
        }
        out[i * k + c0] = acc;
      }
    }
  }
};

/// Builds a tier's kernel table (fp64 or fp32 storage, per the trait's
/// elem type) from the trait instantiation.
template <class V>
constexpr KernelTableT<typename V::elem> make_table(SimdLevel level,
                                                    const char* name) {
  return KernelTableT<typename V::elem>{
      level,
      name,
      &VecKernels<V>::csr_jacobi,
      &VecKernels<V>::csr_fwd,
      &VecKernels<V>::csr_bwd,
  };
}

}  // namespace parlap::kernels
