// Preconditioned conjugate gradient on panels: the solver's outer loop.
//
// The paper wraps its chain in preconditioned Richardson (Algorithm 5,
// Thm 3.8) because that keeps the analysis short; KS16, the sequential
// solver it parallelizes, drives the same kind of factor with PCG, whose
// iteration count grows as sqrt(kappa(W L)) rather than kappa(W L).
// panel_pcg runs one PCG per panel column with per-column scalars, so
// one A-apply and one preconditioner apply per iteration serve the whole
// panel, and column c's bits equal a width-1 solve of b.col(c).
//
// Robustness rules, each needed on hard instances (weights spanning
// 1e+-6, barbells, fp32 chains):
//   * Flexible (Polak-Ribiere) beta = (<r_k, z_k> - <r_{k-1}, z_k>) /
//     <r_{k-1}, z_{k-1}> (Notay, "Flexible conjugate gradients", SIAM J.
//     Sci. Comput. 2000): tolerates preconditioners that are symmetric
//     only up to rounding (fp32 chains).
//   * Convergence is declared only on a recomputed residual b - A x;
//     a column whose recursive residual drifted below its target keeps
//     iterating from the true one.
//   * Every kCheckInterval iterations the true residual replaces the
//     recursive one and the best verified iterate is kept; a column that
//     ends unconverged (cap, stall, breakdown) returns the better of its
//     last and its best iterate (x = 0, residual 1, to start with).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/laplacian_op.hpp"
#include "linalg/panel.hpp"

namespace parlap {

/// y = M x for a fixed linear operator M (the Krylov baselines' form).
using LinearMap =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Y = M X column-wise for a fixed linear operator M (blocked apply). The
/// outer loops only ever apply M to panels; a single right-hand side is a
/// width-1 panel. M must resize Y to X's shape.
using PanelMap = std::function<void(const Panel&, Panel&)>;

/// What an outer loop reads besides eps (RichardsonOptions adds its
/// step-size knobs on top).
struct OuterOptions {
  /// Iteration cap; 0 = the paper's ceil(e^{2 delta} ln(1/eps)) at
  /// delta = 1 (137 at eps = 1e-8).
  int max_iterations = 0;
  /// Early exit when ||b - Ax|| / ||b|| <= residual_target; negative =
  /// use eps (the caller's accuracy goal) as the target.
  double residual_target = -1.0;
  /// > 0 enables stall detection: every stall_window iterations, a panel
  /// column whose residual has not shrunk to at least stall_improvement x
  /// its value at the previous checkpoint stops with reached_target =
  /// false. 0 (default) = disabled. LaplacianSolver enables it on fp32
  /// chains so a solve pinned at the float-storage floor escalates to
  /// the fp64 chain instead of burning the iteration cap.
  int stall_window = 0;
  /// Required residual shrink factor per stall_window (see above).
  double stall_improvement = 0.75;
};

struct IterationStats {
  int iterations = 0;
  double relative_residual = 0.0;
  bool reached_target = false;
};

/// The panels one panel_pcg call iterates on; pooled by callers that
/// solve repeatedly (LaplacianSolver's SolveScratch) so steady-state
/// solves allocate nothing. `work` holds A p, then b - A x at a check,
/// then z = M r: the three are never live at once.
struct PcgWorkspace {
  Panel r, r_prev, p, x_best, work;
};

/// Solves A x.col(c) = b.col(c) to eps for every column of the panel by
/// PCG with preconditioner `precond` (~ A^+), starting from x = 0. A
/// column that converges (or stops) is frozen, so its history and bits
/// are identical to a width-1 solve of b.col(c) at any block width and
/// thread count. relative_residual is the true ||b - A x|| / ||b|| of
/// the returned column, never above the starting 1 for a nonzero
/// column; zero columns return x = 0 after 0 iterations. x is resized to
/// b's shape and overwritten; `ws` = nullptr allocates a private one.
std::vector<IterationStats> panel_pcg(const LaplacianOperator& a,
                                      const PanelMap& precond, const Panel& b,
                                      Panel& x, double eps,
                                      const OuterOptions& opts = {},
                                      PcgWorkspace* ws = nullptr);

}  // namespace parlap
