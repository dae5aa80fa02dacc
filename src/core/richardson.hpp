// Preconditioned Richardson iteration (Algorithm 5, Theorem 3.8).
//
// Given B ~delta A^+, the iteration x_k = (I - alpha B A) x_{k-1} +
// alpha B b with alpha = 2/(e^-delta + e^delta) converges to an
// eps-approximate solution in ceil(e^{2 delta} log(1/eps)) steps, each one
// A-apply plus one B-apply. We compute the equivalent residual form
// x += alpha B (b - A x), which exposes ||r||/||b|| for free and enables
// early exit.
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
/// Richardson loop and its step estimate only ever apply M to panels; a
/// single right-hand side is a width-1 panel.
using PanelMap = std::function<void(const Panel&, Panel&)>;

struct RichardsonOptions {
  /// delta with B ~delta A^+. Thm 3.10 gives delta = 1 for the block
  /// Cholesky preconditioner. Used only when auto_step is false.
  double delta = 1.0;
  /// Iteration cap; 0 = the paper's ceil(e^{2 delta} ln(1/eps)).
  int max_iterations = 0;
  /// Early exit when ||b - Ax|| / ||b|| <= residual_target; negative =
  /// use eps (the caller's accuracy goal) as the target.
  double residual_target = -1.0;
  /// Estimate lambda_max(B A) by a short power iteration and use
  /// alpha = 0.95 / lambda_max instead of the paper's 2/(e^-d + e^d).
  /// This never diverges, whatever the actual preconditioner quality;
  /// the paper's fixed alpha assumes spec(BA) within [e^-d, e^d] and
  /// diverges beyond it. Costs `power_iterations` extra A/B applies.
  bool auto_step = true;
  int power_iterations = 8;
  /// > 0: use exactly this step size (callers that cache the power
  /// iteration across solves of one factorization, e.g. LaplacianSolver).
  double fixed_alpha = 0.0;
  /// > 0 enables stall detection: every stall_window iterations, a run
  /// (or panel column) whose residual has not shrunk to at least
  /// stall_improvement x its value at the previous checkpoint stops with
  /// reached_target = false, and a non-finite residual stops
  /// immediately. 0 (default) = disabled — iteration behavior is exactly
  /// the pre-stall-detection code. LaplacianSolver enables this on fp32
  /// refinement rounds so a stalled (storage-precision-floored) solve
  /// escalates to the fp64 chain instead of burning the iteration cap.
  int stall_window = 0;
  /// Required residual shrink factor per stall_window (see above).
  double stall_improvement = 0.75;
};

/// lambda_max of precond∘a (a symmetric-similar PSD product) by power
/// iteration on width-1 panels from a deterministic start vector.
[[nodiscard]] double estimate_max_eigenvalue(const LaplacianOperator& a,
                                             const PanelMap& precond,
                                             int iterations = 8);

struct IterationStats {
  int iterations = 0;
  double relative_residual = 0.0;
  bool reached_target = false;
};

/// Solves A x.col(c) = b.col(c) to eps for every column of the panel with
/// preconditioner `precond` (= B above), sharing each A-apply and
/// preconditioner apply across all still-running columns; one right-hand
/// side is a width-1 panel. A column that reaches its target is frozen
/// (its x never changes again), so column c's iterate history — and
/// therefore its returned stats and solution bits — is identical to a
/// width-1 solve of b.col(c), at any block width and thread count. x is
/// resized to b's shape and overwritten.
std::vector<IterationStats> preconditioned_richardson(
    const LaplacianOperator& a, const PanelMap& precond, const Panel& b,
    Panel& x, double eps, const RichardsonOptions& opts = {});

}  // namespace parlap
