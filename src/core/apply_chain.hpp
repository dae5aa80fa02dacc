// ApplyChain — the immutable, CSR-packed apply-side representation of a
// block Cholesky chain (ApplyCholesky, Algorithm 2), plus the blocked
// multi-RHS panel kernels that traverse it.
//
// Construction (BlockCholeskyChain::build) stages each elimination level
// in arena-recycled EliminationLevel scratch, then finalize() packs every
// level's F list, Jacobi diagonals (1/X_ff, diag Y), and the three
// sub-CSR blocks (F-F for Y, F->C, C->F) into contiguous arrays.
// Each block row holds one entry per column: the parallel multi-edges the
// level graph keeps for sampling are summed when the level is extracted,
// so the chain stores the operator, not the multigraph.
// Row offsets are rebased to absolute positions in the shared column /
// weight arrays, so applying the chain is one monotone sweep over three
// flat buffers — no per-level pointer chasing, no per-level allocations,
// and the whole operator's index data is as cache-dense as a single CSR
// matrix. After finalize() the chain never mutates.
//
// Elimination slots: every input vertex owns one row of a single n0-row
// apply vector. Level k's F vertices take slots [f_base, f_base + nf) in
// f_list order, and the base takes the last base_n slots; a kept vertex
// keeps its slot all the way down. finalize() rewrites the F->C columns
// to slots and tags each stored C->F row (only C vertices with an F
// neighbour have one) with its slot, so ApplyCholesky works in place on
// that one vector: level k reads and writes its contiguous F slice plus
// the slots its blocks name, and no kept row is copied between levels.
//
// Base solve: the base graph's Laplacian is stored as its grounded GTH
// factor (linalg/dense.hpp), applied exactly as L^+ by triangular sweeps
// in place on the base's trailing slots.
//
// Storage precision: a chain is packed EITHER fp64 (the default — value
// arrays double, solves bit-identical to the pre-precision code) OR fp32
// (value arrays and base factor float; index arrays unchanged). The fp32
// traversal computes in NATIVE float — half the bytes per value and
// twice the SIMD lanes per register — so an fp32 chain is the same
// operator evaluated in float, a constant-quality preconditioner the
// solver's fp64 outer PCG loop refines to any requested eps.
// Build staging is always fp64; the narrowing happens once, inside
// finalize().
//
// apply() serves one vector; apply() on a Panel serves k right-hand
// sides with ONE chain traversal: every slot list, offset row, and
// neighbor/weight entry is read once per panel instead of once per RHS.
// Columns are computed independently, in exactly the arithmetic order of
// the k=1 kernel, so panel results are bit-identical, column for column,
// to k sequential applies — at any block width and OpenMP thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/kernels/aligned_buffer.hpp"
#include "linalg/panel.hpp"
#include "support/precision.hpp"
#include "support/types.hpp"

namespace parlap {

/// Build-time staging of one elimination level (recycled per level via
/// ChainBuildArena; finalize() packs it into the ApplyChain and the
/// staging buffers are reused by the next build).
struct EliminationLevel {
  Vertex n = 0;   ///< vertices of G^(k-1) at this level
  Vertex nf = 0;  ///< |F_k|
  Vertex nc = 0;  ///< |C_k|
  std::vector<Vertex> f_list;  ///< level-local ids eliminated here
  std::vector<double> inv_x;   ///< 1/X_ff; 0 for isolated vertices
  std::vector<double> y_diag;  ///< induced-F weighted degree (Y diagonal)

  /// Row-compressed adjacency: one entry per (row, column), weighted by
  /// the sum of that pair's multi-edges and ordered by first occurrence in
  /// the walk-graph row.
  struct SubCsr {
    std::vector<EdgeId> off;  ///< size rows+1
    std::vector<Vertex> nbr;  ///< column indices, distinct per row
    std::vector<Weight> w;
  };
  SubCsr ff;  ///< F-row -> F-col: Y's off-diagonal weights, both directions
  SubCsr fc;  ///< F-row -> C vertex (L_FC), columns in input (level-0) ids
  /// C-row -> F-col (L_CF), the stable transpose of fc, holding only the
  /// C vertices that have an F neighbour, in increasing vertex order.
  SubCsr cf;
  std::vector<Vertex> cf_rows;  ///< input id of each cf row
};

/// One storage type's apply scratch (interleaved panels; see
/// ApplyWorkspace). fp64 chains use the double set, fp32 chains the
/// float set; a workspace bouncing between chains of both precisions
/// keeps each set's capacity warm.
template <typename T>
struct ApplyBuffers {
  /// The apply vector: n0 x cols, rows in elimination-slot order.
  kernels::AlignedBuffer<T> vec;
  /// Jacobi scratch, max_nf x cols each.
  kernels::AlignedBuffer<T> jac_b, jac_cur, jac_tmp;
  /// Back-substitution's L_FC x_C, max_nf x cols; the base solve's
  /// per-component sums.
  kernels::AlignedBuffer<T> scratch_f;
};

/// Scratch reused across apply() calls; one per calling thread
/// (WorkspacePool<ApplyWorkspace> hands them out to concurrent solvers).
/// A workspace may be reused across chains AND block widths:
/// prepare_workspace re-sizes whenever (prepared_for, prepared_cols)
/// does not match the applying chain's process-unique build id and the
/// panel width, so scratch prepared for k=1 is never reused unsized for
/// a k=8 panel. (The id is an id, not an address: a chain reallocated at
/// a dead chain's address can never match stale scratch. A chain's
/// storage precision is fixed at finalize, so the build id also pins
/// which of the two buffer sets the chain sized.)
///
/// Buffers hold k-column panels INTERLEAVED — element (i, c) lives at
/// i*cols + c, so one row's column values are contiguous and the SIMD
/// kernels (linalg/kernels/) load them with one vector instruction; at
/// cols == 1 the layout is the plain vector layout. The apply vector's
/// rows are elimination slots, not input rows: pack-in and pack-out
/// permute between the two. Storage is 64-byte-aligned AlignedBuffer,
/// first-touched under the active NumaPolicy on the preparing (worker)
/// thread.
class ApplyWorkspace {
 public:
  ApplyBuffers<double> f64;
  ApplyBuffers<float> f32;
  template <typename T>
  [[nodiscard]] ApplyBuffers<T>& buffers() noexcept;
  std::uint64_t prepared_for = 0;  ///< build id the sizes above match
  std::size_t prepared_cols = 0;   ///< block width the sizes above match
};

template <>
[[nodiscard]] inline ApplyBuffers<double>& ApplyWorkspace::buffers<double>() noexcept {
  return f64;
}
template <>
[[nodiscard]] inline ApplyBuffers<float>& ApplyWorkspace::buffers<float>() noexcept {
  return f32;
}

/// The packed chain. Default-constructed = empty (dimension 0); filled
/// exactly once by finalize().
class ApplyChain {
 public:
  /// Per-level metadata: sizes plus base indices into the packed arrays.
  /// Row-offset values stored in offsets() are absolute into columns() /
  /// weights(); per level the blocks are packed ff, fc, cf. ff and cf
  /// columns are level-local F indices, fc columns are slots. cf stores
  /// only the C rows that have an entry, in C order.
  struct Level {
    Vertex n = 0;
    Vertex nf = 0;
    Vertex nc = 0;
    Vertex cf_rows = 0;       ///< stored cf rows (C vertices with an F neighbour)
    /// f_lists() / inv_x() / y_diag(), nf entries; also the level's first
    /// slot (its F vertices own slots [f_base, f_base + nf)).
    std::size_t f_base = 0;
    std::size_t cf_base = 0;  ///< cf_slots(), cf_rows entries
    std::size_t ff_off = 0;   ///< offsets(), nf+1 entries
    std::size_t fc_off = 0;   ///< offsets(), nf+1 entries
    std::size_t cf_off = 0;   ///< offsets(), cf_rows+1 entries
  };

  /// Packs `staging` (consumed by copy; buffers stay with the arena for
  /// recycling) plus the base graph's grounded factor into the immutable
  /// form.
  /// `slots[v]` is input vertex v's elimination slot; the staged fc
  /// columns and cf rows, which name input vertices, are rewritten
  /// through it. `storage` selects the value-array precision (fp64 keeps
  /// the staged doubles and the fp64 factor; fp32 narrows every value
  /// once, here; kAuto is a caller bug — resolve before building).
  void finalize(std::span<const EliminationLevel> staging,
                std::span<const Vertex> slots, const GroundedFactor& base,
                int jacobi_terms, std::uint64_t build_id,
                Precision storage = Precision::kFp64);

  [[nodiscard]] Vertex dimension() const noexcept { return n0_; }
  [[nodiscard]] int depth() const noexcept {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] Vertex base_size() const noexcept { return base_n_; }
  [[nodiscard]] int jacobi_terms() const noexcept { return jacobi_terms_; }
  [[nodiscard]] std::uint64_t build_id() const noexcept { return build_id_; }
  /// Storage precision of the packed value arrays (kFp64 or kFp32).
  [[nodiscard]] Precision storage() const noexcept { return storage_; }
  /// Total packed sub-CSR entries (memory proxy for E12).
  [[nodiscard]] EdgeId stored_entries() const noexcept {
    return static_cast<EdgeId>(nbr_.size());
  }
  /// Value bytes actually held by the packed arrays (weights + Jacobi
  /// diagonals + base factor): the bytes-aware cache cost proxy — an fp32
  /// chain reports half an fp64 chain's bytes for the same structure.
  [[nodiscard]] std::size_t stored_value_bytes() const noexcept {
    const std::size_t values = (storage_ == Precision::kFp32)
                                   ? w_f_.size() + inv_x_f_.size() +
                                         y_diag_f_.size() + base_f_.size()
                                   : w_.size() + inv_x_.size() +
                                         y_diag_.size() + base_.size();
    return values * (storage_ == Precision::kFp32 ? sizeof(float)
                                                  : sizeof(double));
  }

  // Packed-array views (equivalence tests, diagnostics). The value-array
  // views are per storage type: the fp64 views are empty on an fp32
  // chain and vice versa; index views are storage-independent.
  [[nodiscard]] const std::vector<Level>& levels() const noexcept {
    return levels_;
  }
  [[nodiscard]] std::span<const Vertex> f_lists() const noexcept {
    return {f_lists_.data(), f_lists_.size()};
  }
  /// slots()[v] is input row v's elimination slot (a permutation of
  /// [0, dimension())).
  [[nodiscard]] std::span<const Vertex> slots() const noexcept {
    return {slots_.data(), slots_.size()};
  }
  /// The slot of each stored cf row, per level at Level::cf_base.
  [[nodiscard]] std::span<const Vertex> cf_slots() const noexcept {
    return {cf_slots_.data(), cf_slots_.size()};
  }
  [[nodiscard]] std::span<const double> inv_x() const noexcept {
    return {inv_x_.data(), inv_x_.size()};
  }
  [[nodiscard]] std::span<const double> y_diag() const noexcept {
    return {y_diag_.data(), y_diag_.size()};
  }
  [[nodiscard]] std::span<const EdgeId> offsets() const noexcept {
    return {off_.data(), off_.size()};
  }
  [[nodiscard]] std::span<const Vertex> columns() const noexcept {
    return {nbr_.data(), nbr_.size()};
  }
  [[nodiscard]] std::span<const Weight> weights() const noexcept {
    return {w_.data(), w_.size()};
  }
  [[nodiscard]] std::span<const float> inv_x_f32() const noexcept {
    return {inv_x_f_.data(), inv_x_f_.size()};
  }
  [[nodiscard]] std::span<const float> y_diag_f32() const noexcept {
    return {y_diag_f_.data(), y_diag_f_.size()};
  }
  [[nodiscard]] std::span<const float> weights_f32() const noexcept {
    return {w_f_.data(), w_f_.size()};
  }

  /// y = W b (Algorithm 2) for one right-hand side. Inputs and outputs
  /// are double regardless of storage(): an fp32 chain narrows b into
  /// its float workspace on pack-in and widens the result on pack-out.
  void apply(std::span<const double> b, std::span<double> y,
             ApplyWorkspace& ws) const;

  /// Blocked ApplyCholesky: y.col(c) = W b.col(c) for every column, one
  /// chain traversal for the whole panel. y is resized to b's shape.
  void apply(const Panel& b, Panel& y, ApplyWorkspace& ws) const;

 private:
  /// Shared k-column core: column c of b/y starts at b + c*ld.
  /// Dispatches on storage() to the T-typed traversal.
  void apply_cols(const double* b, double* y, std::size_t cols,
                  std::size_t ld, ApplyWorkspace& ws) const;

  template <typename T>
  void apply_cols_t(const double* b, double* y, std::size_t cols,
                    std::size_t ld, ApplyWorkspace& ws) const;

  template <typename T>
  void prepare_workspace(ApplyWorkspace& ws, std::size_t cols) const;

  /// Truncated Jacobi series Z b over level `lvl` (nf x cols panels).
  /// Returns the result, which lives in ws's Jacobi scratch until the
  /// next call.
  template <typename T>
  const T* jacobi_solve(const Level& lvl, const T* b_f, std::size_t cols,
                        ApplyWorkspace& ws) const;

  /// Prefetches level `k`'s packed slices so the next level's index and
  /// value data is in cache before its sweeps start.
  template <typename T>
  void prefetch_level(std::size_t k) const;

  // Storage-typed views of the value arrays (the fp32 set mirrors the
  // fp64 one; exactly one set is populated per chain).
  template <typename T>
  [[nodiscard]] const T* inv_x_data() const noexcept;
  template <typename T>
  [[nodiscard]] const T* y_diag_data() const noexcept;
  template <typename T>
  [[nodiscard]] const T* w_data() const noexcept;
  template <typename T>
  [[nodiscard]] const T* base_data() const noexcept;

  Vertex n0_ = 0;
  std::vector<Level> levels_;
  // Packed arrays: 64-byte-aligned, first-touched under the active
  // NumaPolicy by the finalizing (worker) thread. Index arrays are
  // shared by both storage modes; value arrays exist in exactly one of
  // the double / float variants, per storage_.
  kernels::AlignedBuffer<Vertex> f_lists_;
  kernels::AlignedBuffer<Vertex> cf_slots_;
  kernels::AlignedBuffer<Vertex> slots_;      ///< input row -> slot
  kernels::AlignedBuffer<Vertex> slot_rows_;  ///< slot -> input row
  kernels::AlignedBuffer<double> inv_x_;
  kernels::AlignedBuffer<double> y_diag_;
  kernels::AlignedBuffer<EdgeId> off_;  ///< absolute into nbr_ / w_
  kernels::AlignedBuffer<Vertex> nbr_;
  kernels::AlignedBuffer<Weight> w_;
  kernels::AlignedBuffer<double> base_;  ///< GroundedFactor::values
  kernels::AlignedBuffer<float> inv_x_f_;
  kernels::AlignedBuffer<float> y_diag_f_;
  kernels::AlignedBuffer<float> w_f_;
  kernels::AlignedBuffer<float> base_f_;
  kernels::AlignedBuffer<Vertex> base_component_;  ///< per base vertex
  Vertex base_n_ = 0;
  Vertex base_components_ = 0;
  int jacobi_terms_ = 1;
  std::uint64_t build_id_ = 0;
  Precision storage_ = Precision::kFp64;
};

template <>
[[nodiscard]] inline const double* ApplyChain::inv_x_data<double>()
    const noexcept {
  return inv_x_.data();
}
template <>
[[nodiscard]] inline const float* ApplyChain::inv_x_data<float>()
    const noexcept {
  return inv_x_f_.data();
}
template <>
[[nodiscard]] inline const double* ApplyChain::y_diag_data<double>()
    const noexcept {
  return y_diag_.data();
}
template <>
[[nodiscard]] inline const float* ApplyChain::y_diag_data<float>()
    const noexcept {
  return y_diag_f_.data();
}
template <>
[[nodiscard]] inline const double* ApplyChain::w_data<double>()
    const noexcept {
  return w_.data();
}
template <>
[[nodiscard]] inline const float* ApplyChain::w_data<float>() const noexcept {
  return w_f_.data();
}
template <>
[[nodiscard]] inline const double* ApplyChain::base_data<double>()
    const noexcept {
  return base_.data();
}
template <>
[[nodiscard]] inline const float* ApplyChain::base_data<float>()
    const noexcept {
  return base_f_.data();
}

}  // namespace parlap
