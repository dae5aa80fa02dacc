// Top-level parallel Laplacian solver (Theorems 1.1 and 1.2).
//
// LaplacianSolver ties the pipeline together:
//   input graph -> connected components -> per component:
//     alpha-bounding edge split (uniform, Lemma 3.2, = Thm 1.1; or by
//     leverage-score overestimates, Lemma 3.3, = Thm 1.2)
//     -> BlockCholesky chain (Algorithm 1) -> solve() drives PCG
//     (core/pcg.hpp) with ApplyCholesky (Algorithm 2), projected onto
//     the range of L, as the constant-quality preconditioner. The paper
//     uses PreconRichardson (Algorithm 5) because it keeps the analysis
//     short; PCG needs no step size and its iteration count grows as
//     sqrt(kappa) rather than kappa (Richardson stays a free function,
//     core/richardson.hpp, for bench E7).
//
// solve() accepts any right-hand side; the component of b in the kernel of
// L (per-component constants) is projected out, which is the standard
// least-squares convention for Laplacian systems. Residuals are reported
// relative to the projected b.
//
// If a solve stalls — possible when `split_scale` is tuned too low for the
// concentration bound of Thm 3.9 — and `adaptive` is set, the solve
// escalates to a refactorization with doubled split copies (at most
// `max_rebuilds` rounds). Escalation chains are built once, cached, and
// shared: round r's chain is a pure function of (graph, options, r), so a
// solve's outcome never depends on which caller first triggered a round.
//
// Concurrency: solve(), solve_many(), solve_panel(), and
// apply_preconditioner() are const and safe to call concurrently from
// any number of threads on one instance. Per-call scratch (the PCG
// panels included) comes from a WorkspacePool; escalation chains are
// published under a mutex. Results are bit-identical regardless of
// interleaving and thread count.
//
// Blocked solves: there is one solve path, on column-major Panels.
// solve() and the span apply_preconditioner() are width-1 panels,
// solve_many() chunks its right-hand sides into panels of
// options().max_block_width, so one chain traversal per preconditioner
// application serves every column of a panel. Columns are arithmetically
// independent, so panel results are bit-identical, column for column, to
// sequential solve() calls at any block width.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/block_cholesky.hpp"
#include "core/leverage.hpp"
#include "core/pcg.hpp"
#include "graph/connectivity.hpp"
#include "graph/multigraph.hpp"
#include "linalg/laplacian_op.hpp"
#include "linalg/panel.hpp"
#include "parallel/workspace_pool.hpp"

namespace parlap {

/// How edges are multiplied into low-leverage parallel copies before
/// factorization.
enum class SplitStrategy {
  kUniform,   ///< Lemma 3.2 / Theorem 1.1
  kLeverage,  ///< Lemma 3.3 / Theorem 1.2
};

/// Tuning knobs for LaplacianSolver; the defaults reproduce the paper's
/// configuration at practical constants.
struct SolverOptions {
  std::uint64_t seed = 42;
  /// alpha^-1 = max(1, ceil(split_scale * ceil(log2 n)^2)) edge copies.
  /// Theory wants a large hidden constant; 0.05 is a practical default
  /// (9 copies at n = 5000). The outer PCG loop absorbs the weaker
  /// concentration, and the terminal walks' connectivity guard
  /// (core/terminal_walks.hpp) keeps every sampled level connected, which
  /// is what thin graphs (paths, barbells) lose first as copies fall;
  /// `adaptive` rebuilds guard the tail. Ablated in bench E9.
  double split_scale = 0.05;
  SplitStrategy split = SplitStrategy::kUniform;
  LeverageOptions leverage;  ///< used when split == kLeverage
  BlockCholeskyOptions chain;
  /// The outer PCG loop's cap, residual target and stall window.
  OuterOptions outer;
  /// Escalate to doubled split copies when a solve misses eps.
  bool adaptive = true;
  int max_rebuilds = 2;
  /// Storage precision of the factorization (support/precision.hpp).
  /// kFp64 (default). kFp32: the chain's value arrays are float and the
  /// fp64 outer PCG loop (flexible beta, so a preconditioner symmetric
  /// only up to float rounding is fine) acts as iterative refinement —
  /// requested eps is met via extra outer iterations, never bitwise
  /// parity with fp64; if refinement stalls (operator too ill-conditioned for float storage), the solve
  /// escalates to an fp64 rebuild of the same factorization, then on to
  /// the usual doubled-copies rounds. kAuto resolves per graph size at
  /// construction (resolve_precision).
  Precision precision = Precision::kFp64;
  /// Panel width cap for solve_many(): right-hand sides are solved in
  /// blocks of at most this many columns, each block sharing one chain
  /// traversal per preconditioner application. 1 = sequential solves.
  int max_block_width = 8;
};

/// Per-solve outcome of LaplacianSolver::solve() (per right-hand side
/// for the panel paths).
struct SolveStats {
  int iterations = 0;              ///< max over components
  double relative_residual = 0.0;  ///< max over components
  bool converged = false;          ///< residual target reached
  int rebuilds = 0;                ///< escalation rounds used (sum)
  /// Wall seconds spent applying the chain preconditioner for this
  /// right-hand side; in a blocked solve, the panel's shared apply time
  /// divided evenly over its columns.
  double apply_seconds = 0.0;
};

/// Size and shape of the factorization built at construction.
struct FactorizationInfo {
  Vertex n = 0;
  EdgeId m = 0;              ///< input (unsplit) edges
  EdgeId split_edges = 0;    ///< multi-edges after splitting, all components
  std::int64_t copies = 0;   ///< uniform copies per edge (0 for leverage)
  int depth = 0;             ///< max chain depth over components
  int jacobi_terms = 0;
  Vertex components = 0;
  EdgeId stored_entries = 0;  ///< preconditioner memory proxy
  /// F rows the Jacobi sweeps visit per apply (rows with an F neighbour),
  /// summed over the round-0 chains' levels.
  Vertex jacobi_rows = 0;
  /// Resolved storage precision of the round-0 chains (kFp64 or kFp32;
  /// never kAuto — the constructor resolves it).
  Precision precision = Precision::kFp64;
  /// Value bytes held by the round-0 chains (fp32 counts half fp64's
  /// bytes for the same structure; the bytes-aware cache cost proxy).
  std::size_t stored_value_bytes = 0;
};

/// The paper's parallel Laplacian solver (Theorems 1.1 / 1.2): edge
/// splitting, per-component BlockCholesky chains, and a PCG outer loop
/// behind a factor-once / solve-many interface.
class LaplacianSolver {
 public:
  /// Factorizes immediately. Throws on invalid input (negative weights,
  /// self-loops, out-of-range endpoints).
  explicit LaplacianSolver(const Multigraph& g, SolverOptions opts = {});

  /// Solves L x = b to relative accuracy eps as a width-1 panel. Returns
  /// per-solve stats. Thread-safe; deterministic for fixed (b, eps).
  SolveStats solve(std::span<const double> b, std::span<double> x,
                   double eps) const;

  /// Solves one system per entry of `bs` as a true blocked solve: the
  /// right-hand sides are packed into column panels of at most
  /// options().max_block_width columns, and each panel shares one chain
  /// traversal per preconditioner application. xs[i] receives the
  /// solution of bs[i], bit-identical to solve(bs[i], xs[i], eps) at any
  /// block width and thread count. Thread-safe.
  std::vector<SolveStats> solve_many(std::span<const Vector> bs,
                                     std::span<Vector> xs, double eps) const;

  /// Solves all columns of `b` as one panel (x.col(c) receives the
  /// solution of b.col(c), bit-identical to a width-1 solve of that
  /// column). The primitive under solve() and solve_many(); exposed for
  /// callers that already hold panel data (the api adapter). Thread-safe.
  std::vector<SolveStats> solve_panel(const Panel& b, Panel& x,
                                      double eps) const;

  /// Applies the block Cholesky preconditioner W (block-diagonal over
  /// components, kernel directions projected) to one vector, as a
  /// width-1 panel. Exposed for external outer loops (benches E3 and E7
  /// run Richardson on it) and diagnostics. Thread-safe.
  void apply_preconditioner(std::span<const double> r,
                            std::span<double> y) const;

  /// Blocked preconditioner apply: one chain traversal per component for
  /// the whole panel (bench E17's headline kernel). Column c equals a
  /// width-1 apply of r.col(c). Thread-safe.
  void apply_preconditioner(const Panel& r, Panel& y) const;

  /// One exact L-multiply of the *input* graph (for residual checks).
  void apply_laplacian(std::span<const double> x, std::span<double> y) const;

  /// Describes the round-0 factorization (escalation rounds, when the
  /// adaptive path ever builds them, are not reflected here).
  [[nodiscard]] const FactorizationInfo& info() const noexcept {
    return info_;
  }
  [[nodiscard]] const SolverOptions& options() const noexcept { return opts_; }
  /// Aggregate build-phase telemetry of the round-0 factorizations
  /// (seconds and arena counters summed over components; per-level
  /// breakdown kept from the deepest chain). Escalation rounds built
  /// later by the adaptive path are not reflected, mirroring info().
  [[nodiscard]] const BuildStats& build_stats() const noexcept {
    return build_stats_;
  }
  /// Per-level diagnostics of the (first / largest) component's chain.
  [[nodiscard]] const std::vector<LevelStats>& level_stats(
      std::size_t component = 0) const {
    return comps_.at(component).rounds.front()->chain.level_stats();
  }
  [[nodiscard]] std::size_t num_components() const noexcept {
    return comps_.size();
  }

 private:
  /// One factorization of one component at one escalation round,
  /// immutable after construction.
  struct ChainRound {
    BlockCholeskyChain chain;
    std::int64_t copies = 0;
    EdgeId split_edges = 0;
  };

  struct ComponentSolver {
    std::vector<Vertex> vertices;  ///< global ids, ascending
    Multigraph graph;              ///< unsplit component graph (local ids)
    LaplacianOperator op;          ///< exact L of the component
    /// rounds[0] is built at construction and read lock-free; slots
    /// 1..max_rebuilds are published on demand under rounds_mutex_
    /// (mutable: lazy escalation happens inside const solve()).
    mutable std::vector<std::shared_ptr<ChainRound>> rounds;
  };

  /// Per-call scratch, pooled so sequential solves reuse allocations
  /// while concurrent solves each hold their own. One ApplyWorkspace
  /// per component (a shared one would be re-prepared on every
  /// component switch — the identity check in prepare_workspace) plus
  /// component-local panels, escalation sub-panels, the global panels
  /// solve(), solve_many() and the span apply_preconditioner() pack
  /// their input into, and the PCG loop's panels.
  struct SolveScratch {
    std::vector<ApplyWorkspace> per_component;
    Panel pb_local, px_local, pb_sub, px_sub, pb_global, px_global;
    PcgWorkspace pcg;

    ApplyWorkspace& component_ws(std::size_t c, std::size_t total) {
      if (per_component.size() < total) per_component.resize(total);
      return per_component[c];
    }
  };

  /// Builds the chain for `round` (0 = the configured split; each later
  /// round doubles the copies of the previous one under a shifted seed).
  [[nodiscard]] std::shared_ptr<ChainRound> build_round(
      const ComponentSolver& comp, int round) const;

  /// Returns (building and publishing if necessary) `comp`'s chain for
  /// `round`. Deterministic: the result is independent of which thread
  /// gets there first.
  [[nodiscard]] std::shared_ptr<ChainRound> round_for(
      const ComponentSolver& comp, int round) const;

  /// Highest escalation round index a solve may reach. fp64 mode: the
  /// adaptive doubled-copies rounds (0 when !adaptive). fp32 mode: one
  /// extra rung — round 1 is the fp64 rebuild of round 0's parameters
  /// (always available, even with adaptive off: it rescues the precision
  /// contract, not the concentration bound), and the doubled-copies
  /// rounds follow.
  [[nodiscard]] int max_escalation_round() const noexcept {
    const int adaptive_rounds = opts_.adaptive ? opts_.max_rebuilds : 0;
    return adaptive_rounds +
           (opts_.precision == Precision::kFp32 ? 1 : 0);
  }

  /// The panel solve shared by solve(), solve_many(), and solve_panel().
  std::vector<SolveStats> solve_panel_impl(const Panel& b, Panel& x,
                                           double eps,
                                           SolveScratch& scratch) const;

  /// The panel apply shared by both apply_preconditioner() overloads.
  void apply_preconditioner_impl(const Panel& r, Panel& y,
                                 SolveScratch& scratch) const;

  SolverOptions opts_;
  FactorizationInfo info_;
  BuildStats build_stats_;
  std::vector<ComponentSolver> comps_;
  mutable std::mutex rounds_mutex_;  ///< guards rounds[1..] publication
  mutable WorkspacePool<SolveScratch> scratch_pool_;
};

}  // namespace parlap
