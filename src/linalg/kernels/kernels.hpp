// Runtime-dispatched SIMD kernel layer for the chain apply's hot loop.
//
// Each solve iteration is dominated by ApplyCholesky: the interleaved
// sub-CSR sweeps of ApplyChain::apply_cols (Jacobi iterations, the
// L_CF / L_FC block applies). This layer packages those three sweeps as
// function pointers in a KernelTable, with three implementations —
// scalar, AVX2, AVX-512 — selected ONCE per process by CPUID (or forced
// via the PARLAP_SIMD env var / the --simd flag on parlap_cli and
// parlap_serve). The outer loop's O(n) vector work (Panel updates,
// reductions, gathers) runs as plain loops in linalg/panel.cpp.
//
// Bit-identity contract ("lane = column"): SIMD variants vectorize ONLY
// across independent columns. A lane always carries one column's
// arithmetic in exactly the scalar order, every translation unit is
// compiled with -ffp-contract=off, and no FMA intrinsics are used — so
// every dispatch level produces bit-identical outputs to the scalar
// reference, and a panel column keeps the bits of a width-1 solve at
// every level. tests/linalg/kernel_dispatch_test.cpp enforces exact
// equality; docs/PERFORMANCE.md documents the design rule.
//
// Precision: the table is templated over the STORED value type T.
// KernelTableT<double> is the default fp64 path; KernelTableT<float> is
// the fp32-storage tier behind the mixed-precision apply chain. The
// fp32 kernels compute in NATIVE float arithmetic — half the bytes per
// value AND twice the lanes per vector register (__m256 holds 8 floats,
// __m512 holds 16), which is where the fp32 apply speedup comes from;
// the fp64 refinement loop above the chain owns the accuracy contract.
// The bit-identity contract holds PER STORAGE TYPE: fp32-scalar and
// fp32-SIMD agree bit for bit (both do the same float operations in the
// same order), just like their fp64 counterparts — fp32 results are
// never bit-compared against fp64 ones.
//
// Kernels are SERIAL over a row range [lo, hi): callers own the
// parallelization (for_row_blocks below), so OpenMP structure is
// identical at every dispatch level.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "parallel/for_each.hpp"
#include "support/types.hpp"

namespace parlap::kernels {

/// Instruction-set tiers the dispatcher can select. Order is capability
/// order: a level implies all lower ones.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Lower-case level name ("scalar" / "avx2" / "avx512").
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

/// Parses "scalar" / "avx2" / "avx512"; "auto" maps to the detected
/// level. Unknown names return nullopt.
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(
    std::string_view name) noexcept;

/// Best level this CPU supports (CPUID, queried once).
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// The level the process is currently dispatching to. Initialized on
/// first use from $PARLAP_SIMD (default: the detected level).
[[nodiscard]] SimdLevel active_simd_level() noexcept;

/// Selects the dispatch level, clamping to detected_simd_level() (a
/// request above the hardware's capability selects the detected level
/// and returns the clamped value). Call at startup, before solves run.
SimdLevel set_simd_level(SimdLevel level) noexcept;

/// One ISA tier's kernel set, templated over the stored value type T
/// (double = fp64 storage, float = fp32 storage with native float
/// arithmetic). Row/column counts are element counts; every kernel is
/// "interleaved": element (i, c) lives at i*k + c (the apply-chain
/// workspace layout, so a row's k column values are contiguous).
template <typename T>
struct KernelTableT {
  SimdLevel level = SimdLevel::kScalar;
  const char* name = "scalar";

  /// One Jacobi iteration over rows [lo, hi) (absolute CSR offsets into
  /// nbr/w): tmp(i, :) = xb(i, :) - inv_x[i] * (y_diag[i] * cur(i, :)
  ///                                            - sum_p w[p] * cur(nbr[p], :)).
  void (*csr_jacobi)(std::size_t lo, std::size_t hi, std::size_t k,
                     const EdgeId* off, const Vertex* nbr, const T* w,
                     const T* inv_x, const T* y_diag,
                     const T* xb, const T* cur, T* tmp);
  /// Forward elimination rows [lo, hi), in place:
  /// out(idx[j], :) += sum_p w[p] * src(nbr[p], :), accumulated from the
  /// row's current value in entry order. idx must be duplicate-free and
  /// name no row of src.
  void (*csr_fwd)(std::size_t lo, std::size_t hi, std::size_t k,
                  const EdgeId* off, const Vertex* nbr, const T* w,
                  const Vertex* idx, const T* src, T* out);
  /// Back-substitution rows [lo, hi):
  /// out(i, :) = - sum_p w[p] * src(nbr[p], :).
  void (*csr_bwd)(std::size_t lo, std::size_t hi, std::size_t k,
                  const EdgeId* off, const Vertex* nbr, const T* w,
                  const T* src, T* out);
};

/// The fp64 table (Weight == double) every pre-existing caller uses.
using KernelTable = KernelTableT<double>;

/// Storage type T's table at the active dispatch level. One level slot
/// selects the tables of both storage types, so they never disagree on
/// the ISA.
template <typename T = double>
[[nodiscard]] const KernelTableT<T>& active() noexcept;

/// Storage type T's table for an explicit level (microbenchmarks /
/// parity tests). Levels above detected_simd_level() fall back to the
/// scalar table.
template <typename T = double>
[[nodiscard]] const KernelTableT<T>& table_for(SimdLevel level) noexcept;

/// Whether `level`'s native table is compiled in AND supported by this
/// CPU (table_for() returns the real table, not a fallback).
[[nodiscard]] bool simd_level_available(SimdLevel level) noexcept;

/// Row-block width the drivers hand to the serial kernels; one OpenMP
/// work item per block.
inline constexpr std::size_t kRowBlock = 2048;

/// Runs fn(lo, hi) over [0, n) in kRowBlock-sized blocks, in parallel
/// when more than one block exists (outputs are per-row independent, so
/// scheduling never affects results).
template <typename Fn>
void for_row_blocks(std::size_t n, Fn&& fn) {
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  if (blocks <= 1) {
    if (n > 0) fn(std::size_t{0}, n);
    return;
  }
  parallel_for(
      std::size_t{0}, blocks,
      [&](std::size_t b) {
        fn(b * kRowBlock, std::min(n, (b + 1) * kRowBlock));
      },
      /*grain=*/2);
}

/// Best-effort software prefetch of [p, p + bytes), one touch per cache
/// line, read-only with moderate temporal locality. Used by the chain
/// apply to pull the NEXT level's packed CSR slices into cache while the
/// current level is still computing.
inline void prefetch_bytes(const void* p, std::size_t bytes) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  const char* c = static_cast<const char*>(p);
  for (std::size_t o = 0; o < bytes; o += 64) {
    __builtin_prefetch(c + o, /*rw=*/0, /*locality=*/2);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace parlap::kernels
