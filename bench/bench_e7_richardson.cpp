// E7 — Theorem 3.8: with the constant-quality preconditioner, the outer
// iteration count grows as O(log 1/eps). We sweep eps over 10 decades,
// run the paper's Richardson loop (Algorithm 5, the free
// preconditioned_richardson) on the solver's public apply_preconditioner,
// record iterations and residuals beside the solver's own PCG iteration
// count, fit iterations against ln(1/eps), and cross-check the L-norm
// guarantee against the dense oracle on a small instance.
#include "baselines/dense_direct.hpp"
#include "common.hpp"
#include "core/richardson.hpp"
#include "core/solver.hpp"
#include "linalg/laplacian_op.hpp"

using namespace parlap;
using namespace parlap::bench;

int main() {
  reporter().set_experiment("E7");
  {
    const Vertex side = smoke() ? Vertex{48} : Vertex{128};
    const Multigraph g = make_family("grid2d", side, 3);
    const LaplacianSolver solver(g);
    const LaplacianOperator op(g);
    const Vector b = random_rhs(g.num_vertices(), 11);
    const PanelMap precond = [&solver](const Panel& r, Panel& y) {
      solver.apply_preconditioner(r, y);
    };
    Panel bp;
    panel_from_vectors({&b, 1}, bp);
    // One power-iteration step estimate for the factorization, reused at
    // every eps (alpha = 0.95 / lambda_max(W L)).
    RichardsonOptions rich;
    rich.fixed_alpha = 0.95 / estimate_max_eigenvalue(op, precond);

    TextTable table("E7 Richardson iterations vs eps — grid2d " +
                    std::to_string(side) + "x" + std::to_string(side));
    table.set_header({"eps", "iterations", "relative_residual",
                      "iters/ln(1/eps)", "solve_s", "pcg_iterations"},
                     4);
    std::vector<double> logs;
    std::vector<double> iters;
    for (const double eps :
         sweep<double>({1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12}, 3)) {
      Panel xp;
      WallTimer timer;
      const IterationStats st =
          preconditioned_richardson(op, precond, bp, xp, eps, rich).front();
      const double seconds = timer.seconds();
      Vector x(b.size(), 0.0);
      const SolveStats pcg = solver.solve(b, x, eps);
      logs.push_back(std::log(1.0 / eps));
      iters.push_back(st.iterations);
      char eps_str[16];
      std::snprintf(eps_str, sizeof(eps_str), "%g", eps);
      reporter().record_time(
          std::string("grid2d/eps=") + eps_str,
          {{"n", static_cast<double>(g.num_vertices())},
           {"eps", eps},
           {"iters", static_cast<double>(st.iterations)},
           {"relative_residual", st.relative_residual},
           {"pcg_iters", static_cast<double>(pcg.iterations)}},
          seconds);
      table.add_row({eps, static_cast<std::int64_t>(st.iterations),
                     st.relative_residual,
                     st.iterations / std::log(1.0 / eps), seconds,
                     static_cast<std::int64_t>(pcg.iterations)});
    }
    print_table(table);
    std::cout << "claim check: iters/ln(1/eps) ~ constant; the paper's "
                 "bound is e^{2 delta} = e^2 ~ 7.4 per ln; measured "
                 "contraction is usually much better. pcg_iterations: the "
                 "solver's own PCG outer loop on the same chain.\n\n";
  }

  {
    // L-norm guarantee (the ||.||_L metric of Theorems 1.1/1.2) of the
    // solver's solves against the dense oracle.
    const Multigraph g = make_family("gnm4", 300, 5);
    LaplacianSolver solver(g);
    const LaplacianOperator op(g);
    const DenseDirectSolver oracle(g);
    const Vector b = random_rhs(g.num_vertices(), 13);
    Vector x_star(b.size());
    oracle.solve(b, x_star);
    const double ref = op.laplacian_norm(x_star);

    TextTable table("E7b L-norm error vs eps — gnm4 n=300 (dense oracle)");
    table.set_header({"eps", "residual", "l_norm_error", "err<=eps?"}, 4);
    for (const double eps : {1e-2, 1e-4, 1e-6, 1e-8}) {
      Vector x(b.size(), 0.0);
      solver.solve(b, x, eps);
      Vector diff(b.size());
      for (std::size_t i = 0; i < b.size(); ++i) diff[i] = x[i] - x_star[i];
      const double err = op.laplacian_norm(diff) / ref;
      Vector lx(b.size());
      solver.apply_laplacian(x, lx);
      double rnum = 0.0;
      for (std::size_t i = 0; i < b.size(); ++i) {
        rnum += (lx[i] - b[i]) * (lx[i] - b[i]);
      }
      table.add_row({eps, std::sqrt(rnum) / norm2(b), err,
                     std::string(err <= eps ? "yes" : "no")});
    }
    print_table(table);
    std::cout << "note: the solver's stopping rule is the 2-norm residual; "
                 "the L-norm error it implies is graph-dependent (here "
                 "comfortably below eps).\n";
  }
  return 0;
}
