// Preconditioned Richardson iteration (Algorithm 5, Theorem 3.8).
//
// Given B ~delta A^+, the iteration x_k = (I - alpha B A) x_{k-1} +
// alpha B b with alpha = 2/(e^-delta + e^delta) converges to an
// eps-approximate solution in ceil(e^{2 delta} log(1/eps)) steps, each one
// A-apply plus one B-apply. We compute the equivalent residual form
// x += alpha B (b - A x), which exposes ||r||/||b|| for free and enables
// early exit.
//
// LaplacianSolver's outer loop is PCG (core/pcg.hpp). This loop is the
// paper's, kept as a free function: bench E7 runs it on the solver's
// apply_preconditioner to regenerate Thm 3.8.
#pragma once

#include <vector>

#include "core/pcg.hpp"  // LinearMap, PanelMap, OuterOptions, IterationStats
#include "linalg/laplacian_op.hpp"
#include "linalg/panel.hpp"

namespace parlap {

/// The outer-loop options plus Richardson's step-size knobs. With
/// max_iterations = 0 the cap is the paper's ceil(e^{2 delta} ln(1/eps)).
struct RichardsonOptions : OuterOptions {
  /// delta with B ~delta A^+. Thm 3.10 gives delta = 1 for the block
  /// Cholesky preconditioner. Used only when auto_step is false.
  double delta = 1.0;
  /// Estimate lambda_max(B A) by a short power iteration and use
  /// alpha = 0.95 / lambda_max instead of the paper's 2/(e^-d + e^d).
  /// This never diverges, whatever the actual preconditioner quality;
  /// the paper's fixed alpha assumes spec(BA) within [e^-d, e^d] and
  /// diverges beyond it. Costs `power_iterations` extra A/B applies.
  bool auto_step = true;
  int power_iterations = 8;
  /// > 0: use exactly this step size.
  double fixed_alpha = 0.0;
};

/// lambda_max of precond∘a (a symmetric-similar PSD product) by power
/// iteration on width-1 panels from a deterministic start vector.
[[nodiscard]] double estimate_max_eigenvalue(const LaplacianOperator& a,
                                             const PanelMap& precond,
                                             int iterations = 8);

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
