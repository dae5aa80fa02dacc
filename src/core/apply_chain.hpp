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
// the level's packed row order (below), and the base takes the last
// base_n slots in base order; a kept vertex keeps its slot all the way
// down. finalize() rewrites the F->C columns to slots and tags each
// stored C->F row (only C vertices with an F neighbour have one) with
// its slot, so ApplyCholesky works in place on that one vector: level k
// reads and writes its contiguous F slice plus the slots its blocks name,
// and no kept row is copied between levels.
//
// Level layout: the sweeps cost per row, so finalize() orders each
// level's rows for them and never reorders the entries inside a row. F
// rows with a non-empty ff row (nf_coupled of them) come first, grouped
// by ff length, then fc length; the uncoupled F rows follow, grouped by
// fc length; cf rows are grouped by length. Ties keep the staged
// (ascending vertex) order. The Jacobi series sweeps only the coupled
// rows and gives each uncoupled row its exact closed form (see
// jacobi_solve), so every column does the same operations in the same
// order as over the staged layout: the layout changes no bit.
//
// Base solve: the base graph's Laplacian is stored as its grounded GTH
// factor (linalg/dense.hpp), applied exactly as L^+ by triangular sweeps
// in place on the base's trailing slots.
//
// Storage precision: a chain holds exactly one ChainValues<T> — its
// Jacobi diagonals, block weights and base factor — with T = double
// (fp64, the default) or float (fp32); the index arrays are the same
// either way. apply() looks the value store up once and runs the one
// T-typed traversal on it. The fp32 traversal computes in NATIVE float —
// half the bytes per value and twice the SIMD lanes per register — so an
// fp32 chain is the same operator evaluated in float, a constant-quality
// preconditioner the solver's fp64 outer PCG loop refines to any
// requested eps. Build staging is always fp64; the narrowing happens
// once, inside finalize().
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
#include <tuple>
#include <variant>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/kernels/aligned_buffer.hpp"
#include "linalg/panel.hpp"
#include "support/precision.hpp"
#include "support/types.hpp"

namespace parlap {

namespace kernels {
template <typename T>
struct KernelTableT;
}  // namespace kernels

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

/// The values one chain stores, all in storage type T (double: fp64,
/// float: fp32), at the positions ApplyChain's index arrays give them.
template <typename T>
struct ChainValues {
  kernels::AlignedBuffer<T> inv_x;   ///< 1/X_ff, per level at Level::f_base
  kernels::AlignedBuffer<T> y_diag;  ///< Y's diagonal, at Level::f_base
  kernels::AlignedBuffer<T> w;       ///< block weights, parallel to columns()
  kernels::AlignedBuffer<T> base;    ///< the base's GroundedFactor::values

  [[nodiscard]] std::size_t bytes() const noexcept {
    return (inv_x.size() + y_diag.size() + w.size() + base.size()) *
           sizeof(T);
  }
};

/// One storage type's apply scratch (interleaved panels; see
/// ApplyWorkspace).
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
/// storage type is fixed at finalize, so the build id also pins which
/// buffer set the chain sized.)
///
/// Buffers hold k-column panels INTERLEAVED — element (i, c) lives at
/// i*cols + c, so one row's column values are contiguous and the SIMD
/// kernels (linalg/kernels/) load them with one vector instruction; at
/// cols == 1 the layout is the plain vector layout. The apply vector's
/// rows are elimination slots, not input rows: pack-in and pack-out
/// permute between the two. Storage is 64-byte-aligned AlignedBuffer,
/// first touched by the preparing (worker) thread.
struct ApplyWorkspace {
  /// One set per storage type, picked with std::get<ApplyBuffers<T>>: a
  /// workspace shared by chains of both precisions keeps each set's
  /// capacity warm.
  std::tuple<ApplyBuffers<double>, ApplyBuffers<float>> buffers;
  std::uint64_t prepared_for = 0;  ///< build id the sizes above match
  std::size_t prepared_cols = 0;   ///< block width the sizes above match
};

/// The packed chain. Default-constructed = empty (dimension 0); filled
/// exactly once by finalize().
class ApplyChain {
 public:
  /// Per-level metadata: sizes plus base indices into the packed arrays.
  /// Row-offset values stored in offsets() are absolute into columns() /
  /// weights(); per level the blocks are packed ff, fc, cf. ff and cf
  /// columns are the level's packed F rows, fc columns are slots. cf
  /// stores only the C rows that have an entry, grouped by length; each
  /// cf row keeps its entries in staged (ascending vertex) F order.
  struct Level {
    Vertex n = 0;
    Vertex nf = 0;
    Vertex nc = 0;
    Vertex cf_rows = 0;       ///< stored cf rows (C vertices with an F neighbour)
    /// F rows with a non-empty ff row; they are the level's first rows,
    /// the only ones the Jacobi sweeps visit.
    Vertex nf_coupled = 0;
    /// f_lists() and the values' inv_x / y_diag, nf entries; also the
    /// level's first slot (its F vertices own slots [f_base, f_base + nf)).
    std::size_t f_base = 0;
    std::size_t cf_base = 0;  ///< cf_slots(), cf_rows entries
    std::size_t ff_off = 0;   ///< offsets(), nf+1 entries
    std::size_t fc_off = 0;   ///< offsets(), nf+1 entries
    std::size_t cf_off = 0;   ///< offsets(), cf_rows+1 entries
  };

  /// Packs `staging` (read in place; buffers stay with the arena for
  /// recycling) plus the base graph's grounded factor into the immutable
  /// form, each level in the layout described at the top of this file.
  /// `slots[v]` is input vertex v's slot in the staged order (F vertices
  /// in f_list order); finalize() moves each F vertex to its packed
  /// row's slot and rewrites the staged fc columns and cf rows, which
  /// name input vertices, through the final slots. `jacobi_terms` must
  /// be odd. `storage` selects the value store's type (fp64 keeps
  /// the staged doubles; fp32 narrows every value once, here; kAuto is a
  /// caller bug — resolve before building).
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
  /// Storage precision of the value store (kFp64 or kFp32).
  [[nodiscard]] Precision storage() const noexcept {
    return std::holds_alternative<ChainValues<float>>(values_)
               ? Precision::kFp32
               : Precision::kFp64;
  }
  /// Total packed sub-CSR entries (memory proxy for E12).
  [[nodiscard]] EdgeId stored_entries() const noexcept {
    return static_cast<EdgeId>(nbr_.size());
  }
  /// F rows the Jacobi sweeps visit per apply, summed over levels (each
  /// level's nf_coupled): the per-row work count of the series.
  [[nodiscard]] Vertex jacobi_rows() const noexcept {
    Vertex rows = 0;
    for (const Level& lvl : levels_) rows += lvl.nf_coupled;
    return rows;
  }
  /// Value bytes actually held by the packed arrays (weights + Jacobi
  /// diagonals + base factor): the bytes-aware cache cost proxy — an fp32
  /// chain reports half an fp64 chain's bytes for the same structure.
  [[nodiscard]] std::size_t stored_value_bytes() const noexcept {
    return std::visit([](const auto& v) { return v.bytes(); }, values_);
  }

  // Packed-array views (equivalence tests, diagnostics).
  [[nodiscard]] const std::vector<Level>& levels() const noexcept {
    return levels_;
  }
  /// Each level's F vertices (level-local ids) in packed row order, at
  /// Level::f_base.
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
  [[nodiscard]] std::span<const EdgeId> offsets() const noexcept {
    return {off_.data(), off_.size()};
  }
  [[nodiscard]] std::span<const Vertex> columns() const noexcept {
    return {nbr_.data(), nbr_.size()};
  }
  /// The value store; T must be the storage type (std::get throws
  /// std::bad_variant_access otherwise).
  template <typename T>
  [[nodiscard]] const ChainValues<T>& values() const {
    return std::get<ChainValues<T>>(values_);
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
  /// Shared k-column core: column c of b/y starts at b + c*ld. Looks
  /// the value store up and runs the traversal of its storage type.
  void apply_cols(const double* b, double* y, std::size_t cols,
                  std::size_t ld, ApplyWorkspace& ws) const;

  template <typename T>
  void apply_values(const ChainValues<T>& v, const double* b, double* y,
                    std::size_t cols, std::size_t ld,
                    ApplyWorkspace& ws) const;

  /// Sizes ws's buffer set of type T for this chain at width `cols`
  /// (a no-op when it already is) and returns it.
  template <typename T>
  ApplyBuffers<T>& prepare_workspace(ApplyWorkspace& ws,
                                     std::size_t cols) const;

  /// Writes the staged levels' rows, reordered by f_order (and each
  /// level's cf rows by length), into the packed arrays and `v`.
  template <typename T>
  void pack_levels(ChainValues<T>& v,
                   std::span<const EliminationLevel> staging,
                   const GroundedFactor& base,
                   std::span<const Vertex> f_order,
                   std::span<const Vertex> f_pos);

  /// Truncated Jacobi series Z b over level `lvl` (nf x cols panels).
  /// Returns the result, which lives in buf's Jacobi scratch until the
  /// next call.
  template <typename T>
  const T* jacobi_solve(const Level& lvl, const ChainValues<T>& v,
                        const kernels::KernelTableT<T>& kt, const T* b_f,
                        std::size_t cols, ApplyBuffers<T>& buf) const;

  /// Prefetches level `k`'s packed slices so the next level's index and
  /// value data is in cache before its sweeps start.
  template <typename T>
  void prefetch_level(std::size_t k, const ChainValues<T>& v) const;

  Vertex n0_ = 0;
  std::vector<Level> levels_;
  // Packed arrays: 64-byte-aligned, first touched by the finalizing
  // (worker) thread. The index arrays serve either storage type.
  kernels::AlignedBuffer<Vertex> f_lists_;
  kernels::AlignedBuffer<Vertex> cf_slots_;
  kernels::AlignedBuffer<Vertex> slots_;      ///< input row -> slot
  kernels::AlignedBuffer<Vertex> slot_rows_;  ///< slot -> input row
  kernels::AlignedBuffer<EdgeId> off_;  ///< absolute into nbr_ and the weights
  kernels::AlignedBuffer<Vertex> nbr_;
  kernels::AlignedBuffer<Vertex> base_component_;  ///< per base vertex
  std::variant<ChainValues<double>, ChainValues<float>> values_;
  Vertex base_n_ = 0;
  Vertex base_components_ = 0;
  int jacobi_terms_ = 1;
  std::uint64_t build_id_ = 0;
};

}  // namespace parlap
