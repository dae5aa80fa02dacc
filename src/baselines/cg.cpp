#include "baselines/cg.hpp"

#include <algorithm>

#include "parallel/for_each.hpp"
#include "support/check.hpp"

namespace parlap {

namespace {

/// One right-hand side as a width-1 panel_pcg call with the baselines'
/// own cap; x is projected onto the range of L at the end.
IterationStats run_pcg(const LaplacianOperator& a, const PanelMap& precond,
                       std::span<const double> b, std::span<double> x,
                       double tol, const CgOptions& opts) {
  const std::size_t n = b.size();
  PARLAP_CHECK(x.size() == n);
  OuterOptions outer;
  outer.max_iterations =
      opts.max_iterations > 0
          ? opts.max_iterations
          : std::min<int>(20000, 10 * static_cast<int>(n) + 50);
  Panel bp(n, 1);
  assign(bp.col(0), b);
  Panel xp;
  const IterationStats stats =
      panel_pcg(a, precond, bp, xp, tol, outer).front();
  assign(x, xp.col(0));
  project_out_ones(x);
  return stats;
}

}  // namespace

IterationStats conjugate_gradient(const LaplacianOperator& a,
                                  std::span<const double> b,
                                  std::span<double> x, double tol,
                                  const CgOptions& opts) {
  const PanelMap identity = [](const Panel& r, Panel& z) { z = r; };
  return run_pcg(a, identity, b, x, tol, opts);
}

IterationStats preconditioned_cg(const LaplacianOperator& a,
                                 const LinearMap& precond,
                                 std::span<const double> b,
                                 std::span<double> x, double tol,
                                 const CgOptions& opts) {
  const PanelMap panel_precond = [&precond](const Panel& r, Panel& z) {
    z.resize(r.rows(), 1);
    precond(r.col(0), z.col(0));
  };
  return run_pcg(a, panel_precond, b, x, tol, opts);
}

LinearMap jacobi_diagonal_preconditioner(const LaplacianOperator& a) {
  Vector inv_diag(static_cast<std::size_t>(a.dimension()));
  for (Vertex v = 0; v < a.dimension(); ++v) {
    const double d = a.csr().weighted_degree(v);
    inv_diag[static_cast<std::size_t>(v)] = d > 0.0 ? 1.0 / d : 0.0;
  }
  return [inv_diag = std::move(inv_diag)](std::span<const double> r,
                                          std::span<double> y) {
    parallel_for(std::size_t{0}, r.size(),
                 [&](std::size_t i) { y[i] = inv_diag[i] * r[i]; });
  };
}

}  // namespace parlap
