// Block Cholesky factorization chain (Algorithms 1 and 2, Theorems 3.9
// and 3.10).
//
// BlockCholesky::build repeatedly (a) finds a 5-DD subset F_k (Algorithm
// 3), (b) replaces the Schur complement onto C_k by the TerminalWalks
// sample (Algorithm 4), until the remaining graph has at most
// `base_size` vertices (Thm 3.9-(3)); the base system is solved exactly by
// its grounded GTH factorization (linalg/dense.hpp).
//
// apply() realizes ApplyCholesky (Algorithm 2): forward substitution down
// the chain with the F-blocks solved approximately by the truncated Jacobi
// series Z = sum_i X^-1 (-Y X^-1)^i (Lemma 3.5, l = O(log d) terms for
// eps = 1/2d), the exact base solve, and backward substitution up. The
// resulting operator W is symmetric PSD and satisfies W^+ ~1 L_G w.h.p.
// (Thm 3.10), making it a constant-quality preconditioner.
//
// Memory: only edges incident to the eliminated sets are retained (three
// sub-CSR blocks per level: F-F for Y, F->C and C->F for the off-diagonal
// blocks), with one summed entry per (row, column) however many parallel
// multi-edges the level graph holds, totalling at most
// O(sum_k vol(F_k)) = O(m log n) in expectation. The
// blocks of every level are packed into one immutable ApplyChain
// (core/apply_chain.hpp) at the end of build: contiguous arrays with
// absolute row offsets, so ApplyCholesky is a flat cache-dense sweep, in
// place on one slot-ordered vector, and one traversal can serve a whole
// Panel of right-hand sides.
//
// Construction runs against a ChainBuildArena (build_arena.hpp). Every
// level graph lives in the arena's one LevelGraph (level_graph.hpp): a
// single edge array in input vertex ids — copied from the caller's graph,
// or, for the consuming overload, the graph's own arrays — that each
// level rewrites in place only where F_k touches it. One sweep per 5-DD
// round is the only pass over all of it. The other per-level passes
// (S-row degree sums, walk graph, walks, extraction) split their work by
// edge volume and fork by one rule, fork_pays() in parallel/for_each.hpp,
// however few rows a deep level has; each output is a function of its
// own edge or row, so the chain is the same at any thread count. Every
// per-level scratch structure is recycled, and the per-level
// EliminationLevel staging the packer consumes is itself arena-owned, so
// a build against a warmed arena performs zero scratch reallocations.
// Callers that build repeatedly (FactorizationCache misses, escalation
// rounds, benches) can pass their own arena; the default overloads draw
// one from the shared ChainBuildArena::pool(). Per-phase wall times, the
// work counters and the arena counters are recorded in build_stats().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/apply_chain.hpp"
#include "core/build_arena.hpp"
#include "core/build_stats.hpp"
#include "core/five_dd.hpp"
#include "core/terminal_walks.hpp"
#include "graph/multigraph.hpp"
#include "linalg/dense.hpp"
#include "linalg/panel.hpp"
#include "support/types.hpp"

namespace parlap {

struct BlockCholeskyOptions {
  /// Recursion stops when the current graph has at most this many vertices
  /// (the paper uses 100).
  Vertex base_size = 100;
  /// Safety cap on the number of elimination levels.
  int max_levels = 10000;
  /// Jacobi series length l; 0 = auto (smallest odd l >= log2(6 d), i.e.
  /// eps = 1/2d per Lemma 3.5 / Algorithm 2 line 4).
  int jacobi_terms = 0;
  /// Storage precision the packed ApplyChain is finalized with (kFp64 or
  /// kFp32; kAuto must be resolved by the caller before building —
  /// finalize() checks). The build itself always stages in fp64.
  Precision precision = Precision::kFp64;
  FiveDdOptions five_dd;
  WalkOptions walks;
};

/// Per-level diagnostics surfaced to benches (E4-E6) and tests.
struct LevelStats {
  Vertex n = 0;
  EdgeId multi_edges = 0;
  Vertex f_size = 0;
  int five_dd_rounds = 0;
  WalkStats walks;
};

class BlockCholeskyChain {
 public:
  /// Runs Algorithm 1 on an (alpha-bounded) multigraph. The caller is
  /// responsible for splitting edges first (split_edges_uniform /
  /// split_edges_by_scores); the chain itself is oblivious to alpha.
  /// The view must stay valid for the duration of the call only. Scratch
  /// comes from the shared arena pool.
  static BlockCholeskyChain build(MultigraphView g, std::uint64_t seed,
                                  const BlockCholeskyOptions& opts = {});

  /// Consuming overload: takes ownership of `g` and builds in its own
  /// edge arrays (no copy), freeing them once the base case is formed.
  /// Use from factor-and-discard paths such as LaplacianSolver's
  /// escalation rounds and the factorization cache's single-flight
  /// builder.
  static BlockCholeskyChain build(Multigraph&& g, std::uint64_t seed,
                                  const BlockCholeskyOptions& opts = {});

  /// Explicit-arena overload: all scratch comes from (and stays in)
  /// `arena`, so back-to-back builds reuse every buffer. The other
  /// overloads delegate here with a pooled arena.
  static BlockCholeskyChain build(MultigraphView g, std::uint64_t seed,
                                  const BlockCholeskyOptions& opts,
                                  ChainBuildArena& arena);

  [[nodiscard]] Vertex dimension() const noexcept {
    return chain_.dimension();
  }
  /// d, the number of elimination levels (Thm 3.9-(4): O(log n)).
  [[nodiscard]] int depth() const noexcept { return chain_.depth(); }
  /// l, the Jacobi series length used by apply().
  [[nodiscard]] int jacobi_terms() const noexcept {
    return chain_.jacobi_terms();
  }
  [[nodiscard]] Vertex base_size() const noexcept {
    return chain_.base_size();
  }
  [[nodiscard]] const std::vector<LevelStats>& level_stats() const noexcept {
    return stats_;
  }
  /// The immutable CSR-packed apply representation (panel kernels,
  /// equivalence tests, diagnostics).
  [[nodiscard]] const ApplyChain& apply_chain() const noexcept {
    return chain_;
  }
  /// Wall-time/arena telemetry of the build() that produced this chain.
  [[nodiscard]] const BuildStats& build_stats() const noexcept {
    return build_stats_;
  }
  /// Total stored sub-CSR entries (memory proxy for E12).
  [[nodiscard]] EdgeId stored_entries() const noexcept {
    return chain_.stored_entries();
  }
  /// Storage precision of the packed chain (kFp64 or kFp32).
  [[nodiscard]] Precision storage() const noexcept {
    return chain_.storage();
  }
  /// Value bytes held by the packed chain (fp32 = half fp64's).
  [[nodiscard]] std::size_t stored_value_bytes() const noexcept {
    return chain_.stored_value_bytes();
  }

  /// y = W b (Algorithm 2). Symmetric PSD linear operator with
  /// W^+ ~1 L w.h.p.; O(m log n loglog n) work per application.
  void apply(std::span<const double> b, std::span<double> y,
             ApplyWorkspace& ws) const {
    chain_.apply(b, y, ws);
  }

  /// Blocked apply: one chain traversal serves every column of the
  /// panel; column c equals apply() on b.col(c) bit for bit.
  void apply(const Panel& b, Panel& y, ApplyWorkspace& ws) const {
    chain_.apply(b, y, ws);
  }

  /// Convenience overload with a private workspace (allocates).
  void apply(std::span<const double> b, std::span<double> y) const;

 private:
  static BlockCholeskyChain build_impl(MultigraphView g, std::uint64_t seed,
                                       const BlockCholeskyOptions& opts,
                                       ChainBuildArena& arena,
                                       Multigraph* consumed);

  ApplyChain chain_;
  std::vector<LevelStats> stats_;
  BuildStats build_stats_;
};

}  // namespace parlap
