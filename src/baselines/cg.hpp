// Conjugate gradient baselines.
//
// CG (optionally preconditioned) is the practitioner default the paper's
// introduction positions against: without preconditioning its iteration
// count scales with sqrt(condition number) — Theta(n) on a path/grid —
// whereas the block Cholesky preconditioner makes the iteration count
// O(log 1/eps) independent of the graph. Bench E3 regenerates that
// comparison. Both entry points are width-1 calls of the solver's own
// panel PCG loop (core/pcg.hpp); plain CG uses the identity as its
// preconditioner.
#pragma once

#include <span>

#include "core/pcg.hpp"  // LinearMap, IterationStats
#include "linalg/laplacian_op.hpp"

namespace parlap {

/// Tuning knobs shared by the CG / PCG baselines.
struct CgOptions {
  /// Iteration cap; 0 = min(20000, 10 n + 50).
  int max_iterations = 0;
};

/// Unpreconditioned CG on L x = b (b must be orthogonal to the kernel;
/// callers project). Stops at relative residual `tol`.
IterationStats conjugate_gradient(const LaplacianOperator& a,
                                  std::span<const double> b,
                                  std::span<double> x, double tol,
                                  const CgOptions& opts = {});

/// Preconditioned CG with a symmetric PSD preconditioner M ~ A^+.
IterationStats preconditioned_cg(const LaplacianOperator& a,
                                 const LinearMap& precond,
                                 std::span<const double> b,
                                 std::span<double> x, double tol,
                                 const CgOptions& opts = {});

/// Jacobi (diagonal) preconditioner for `a`: y = D^-1 r.
[[nodiscard]] LinearMap jacobi_diagonal_preconditioner(
    const LaplacianOperator& a);

}  // namespace parlap
