// Top-level LaplacianSolver API tests: accuracy across graph families and
// eps values (parameterized), determinism under varying thread counts,
// both splitting strategies, adaptive rebuilds, and input validation.
#include <gtest/gtest.h>

#include <cmath>

#include <omp.h>

#include "baselines/dense_direct.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "linalg/laplacian_op.hpp"
#include "support/rng.hpp"

namespace parlap {
namespace {

Vector random_rhs(Vertex n, std::uint64_t seed) {
  Vector b(static_cast<std::size_t>(n));
  Rng rng(seed, RngTag::kTest, 1);
  for (auto& v : b) v = rng.next_in(-1.0, 1.0);
  project_out_ones(b);
  return b;
}

double l_norm_error(const Multigraph& g, std::span<const double> x,
                    std::span<const double> b) {
  const DenseDirectSolver oracle(g);
  Vector x_star(x.size());
  oracle.solve(b, x_star);
  const LaplacianOperator op(g);
  Vector diff(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) diff[i] = x[i] - x_star[i];
  const double ref = op.laplacian_norm(x_star);
  return ref > 0.0 ? op.laplacian_norm(diff) / ref : op.laplacian_norm(diff);
}

struct Case {
  int family;
  double eps;
};

class SolverAccuracyTest : public ::testing::TestWithParam<Case> {
 protected:
  Multigraph graph() const {
    switch (GetParam().family) {
      case 0:
        return make_grid2d(14, 14);
      case 1: {
        Multigraph g = make_erdos_renyi(250, 1200, 3);
        apply_weights(g, WeightModel::power_law(0.01, 100.0, 2.5), 4);
        return g;
      }
      case 2:
        return make_binary_tree(255);
      case 3:
        return make_barbell(50, 30);
      default: {
        Multigraph g = make_rmat(8, 1200, 5);
        apply_weights(g, WeightModel::uniform(0.5, 2.0), 6);
        return g;
      }
    }
  }
};

TEST_P(SolverAccuracyTest, SolvesToRequestedAccuracy) {
  const Multigraph g = graph();
  LaplacianSolver solver(g);
  const Vector b = random_rhs(g.num_vertices(), 11);
  Vector x(b.size(), 0.0);
  const double eps = GetParam().eps;
  const SolveStats st = solver.solve(b, x, eps);
  EXPECT_TRUE(st.converged);
  EXPECT_LE(st.relative_residual, eps);
  // The residual criterion at eps implies small (not necessarily eps)
  // L-norm error; assert a conservative multiple via the dense oracle.
  EXPECT_LE(l_norm_error(g, x, b), std::sqrt(eps));
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  static constexpr const char* kNames[] = {"Grid", "PowerLawGnm", "Tree",
                                           "Barbell", "Rmat"};
  return std::string(kNames[info.param.family]) + "_eps1e" +
         std::to_string(static_cast<int>(-std::log10(info.param.eps) + 0.5));
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndEps, SolverAccuracyTest,
    ::testing::Values(Case{0, 1e-4}, Case{0, 1e-8}, Case{1, 1e-6},
                      Case{2, 1e-8}, Case{3, 1e-6}, Case{4, 1e-6},
                      Case{1, 1e-10}, Case{3, 1e-10}),
    case_name);

TEST(Solver, DeterministicAcrossThreadCounts) {
  const Multigraph g = make_grid2d(20, 20);
  const Vector b = random_rhs(g.num_vertices(), 13);
  Vector x_multi(b.size(), 0.0);
  Vector x_single(b.size(), 0.0);

  const int saved = omp_get_max_threads();
  {
    LaplacianSolver solver(g);
    solver.solve(b, x_multi, 1e-8);
  }
  omp_set_num_threads(1);
  {
    LaplacianSolver solver(g);
    solver.solve(b, x_single, 1e-8);
  }
  omp_set_num_threads(saved);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(x_multi[i], x_single[i]) << "index " << i;
  }
}

TEST(Solver, LeverageStrategySolves) {
  Multigraph g = make_erdos_renyi(300, 4000, 17);  // fairly dense
  apply_weights(g, WeightModel::uniform(0.5, 2.0), 18);
  SolverOptions opts;
  opts.split = SplitStrategy::kLeverage;
  LaplacianSolver solver(g, opts);
  const Vector b = random_rhs(g.num_vertices(), 19);
  Vector x(b.size(), 0.0);
  const SolveStats st = solver.solve(b, x, 1e-8);
  EXPECT_TRUE(st.converged);
  EXPECT_LE(l_norm_error(g, x, b), 1e-4);
}

TEST(Solver, LeverageSplitsFewerEdgesOnDenseGraphs) {
  // Theorem 1.2's point: on dense graphs most edges have tiny leverage
  // and need no splitting.
  const Multigraph g = make_erdos_renyi(200, 6000, 21);
  SolverOptions uniform_opts;
  SolverOptions leverage_opts;
  leverage_opts.split = SplitStrategy::kLeverage;
  LaplacianSolver u(g, uniform_opts);
  LaplacianSolver l(g, leverage_opts);
  EXPECT_LT(l.info().split_edges, u.info().split_edges / 2);
}

TEST(Solver, AdaptiveRebuildRecoversFromWeakSplit) {
  // Deliberately weaken the preconditioner, cap the outer loop, and
  // require the adaptive path to refactor.
  // Every sampled level stays connected, so a 1-copy chain still
  // converges; it only needs more iterations. On grid2d(24, 24), PCG
  // reaches 1e-6 in 18 iterations on the 1-copy chain, 15 on the first
  // rebuild (2 copies) and 11 on the second (4 copies): each rebuild
  // doubles the copies and tightens W, and a cap of 12 makes the first
  // two rounds escalate.
  const Multigraph g = make_grid2d(24, 24);
  SolverOptions opts;
  opts.split_scale = 1e-9;  // 1 copy: weakest possible concentration
  opts.outer.max_iterations = 12;
  opts.adaptive = true;
  opts.max_rebuilds = 6;
  LaplacianSolver solver(g, opts);
  const Vector b = random_rhs(g.num_vertices(), 23);
  Vector x(b.size(), 0.0);
  const SolveStats st = solver.solve(b, x, 1e-6);
  EXPECT_TRUE(st.converged);
  EXPECT_GE(st.rebuilds, 1);
}

TEST(Solver, OneCopyBarbellConvergesWithoutRebuild) {
  // At 1 copy per edge, a walk sample that drops every copy of a C-F-C
  // link splits barbell(60, 20), and then W is singular and no outer
  // loop converges (without the connectivity guard of
  // core/terminal_walks.hpp, 400 iterations end at residual 0.099). The
  // guarded chain converges in 6.
  const Multigraph g = make_barbell(60, 20);
  SolverOptions opts;
  opts.split_scale = 1e-9;
  opts.outer.max_iterations = 200;
  opts.adaptive = false;
  LaplacianSolver solver(g, opts);
  ASSERT_EQ(solver.info().copies, 1);
  const Vector b = random_rhs(g.num_vertices(), 23);
  Vector x(b.size(), 0.0);
  const SolveStats st = solver.solve(b, x, 1e-6);
  EXPECT_TRUE(st.converged) << "residual " << st.relative_residual;
  EXPECT_EQ(st.rebuilds, 0);
  EXPECT_LE(st.iterations, 20);
}

TEST(Solver, NonAdaptiveReportsFailureHonestly) {
  const Multigraph g = make_barbell(60, 20);
  SolverOptions opts;
  opts.split_scale = 1e-9;
  opts.outer.max_iterations = 2;
  opts.adaptive = false;
  LaplacianSolver solver(g, opts);
  const Vector b = random_rhs(g.num_vertices(), 29);
  Vector x(b.size(), 0.0);
  const SolveStats st = solver.solve(b, x, 1e-10);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.rebuilds, 0);
  EXPECT_GT(st.relative_residual, 1e-10);
}

TEST(Solver, InfoFieldsPopulated) {
  const Multigraph g = make_grid2d(15, 15);
  LaplacianSolver solver(g);
  const FactorizationInfo& info = solver.info();
  EXPECT_EQ(info.n, 225);
  EXPECT_EQ(info.m, g.num_edges());
  EXPECT_EQ(info.components, 1);
  EXPECT_GT(info.copies, 1);
  EXPECT_EQ(info.split_edges, info.copies * g.num_edges());
  EXPECT_GT(info.depth, 0);
  EXPECT_GT(info.jacobi_terms, 0);
  EXPECT_GT(info.stored_entries, 0);
}

TEST(Solver, RhsWithKernelComponentIsProjected) {
  // b with a constant offset: solution must satisfy L x = P b.
  const Multigraph g = make_cycle(64);
  LaplacianSolver solver(g);
  Vector b = random_rhs(64, 31);
  for (auto& v : b) v += 3.0;  // kernel pollution
  Vector x(64, 0.0);
  const SolveStats st = solver.solve(b, x, 1e-8);
  EXPECT_TRUE(st.converged);
  Vector lx(64);
  solver.apply_laplacian(x, lx);
  Vector b_proj = b;
  project_out_ones(b_proj);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(lx[i], b_proj[i], 1e-6);
}

TEST(Solver, SolutionIsMeanFree) {
  const Multigraph g = make_grid2d(9, 9);
  LaplacianSolver solver(g);
  const Vector b = random_rhs(81, 37);
  Vector x(81, 0.0);
  solver.solve(b, x, 1e-8);
  EXPECT_NEAR(sum(x), 0.0, 1e-9);
}

TEST(Solver, SingleVertexComponent) {
  Multigraph g(3);
  g.add_edge(0, 1, 1.0);  // vertex 2 isolated
  LaplacianSolver solver(g);
  EXPECT_EQ(solver.info().components, 2);
  Vector b{1.0, -1.0, 5.0};  // component {2} gets a pure-kernel rhs
  Vector x(3, 0.0);
  const SolveStats st = solver.solve(b, x, 1e-6);
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR(x[0] - x[1], 1.0, 1e-5);  // L x = (1,-1) on the edge
  EXPECT_EQ(x[2], 0.0);
}

TEST(Solver, SolveManyMatchesIndividualSolves) {
  const Multigraph g = make_grid2d(10, 10);
  LaplacianSolver solver(g);
  std::vector<Vector> bs;
  for (std::uint64_t s = 0; s < 3; ++s) bs.push_back(random_rhs(100, 50 + s));
  std::vector<Vector> xs(3, Vector(100, 0.0));
  const std::vector<SolveStats> stats = solver.solve_many(bs, xs, 1e-9);
  ASSERT_EQ(stats.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(stats[i].converged);
    Vector x(100, 0.0);
    solver.solve(bs[i], x, 1e-9);
    for (std::size_t j = 0; j < 100; ++j) EXPECT_EQ(xs[i][j], x[j]);
  }
}

TEST(Solver, RejectsInvalidInput) {
  Multigraph g(2);
  g.resize_edges(1);  // zero-filled edge slot: weight 0
  EXPECT_THROW(LaplacianSolver s(g), std::runtime_error);
}

TEST(Solver, WrongSizeRhsThrows) {
  const Multigraph g = make_path(5);
  LaplacianSolver solver(g);
  Vector b(4, 0.0);
  Vector x(5, 0.0);
  EXPECT_THROW((void)solver.solve(b, x, 0.5), std::runtime_error);
}

TEST(Solver, PreconditionerDrivesPcg) {
  // apply_preconditioner() must be a usable PSD preconditioner on its own.
  const Multigraph g = make_grid2d(12, 12);
  LaplacianSolver solver(g);
  const Vector b = random_rhs(144, 41);
  Vector y(144, 0.0);
  solver.apply_preconditioner(b, y);
  // PSD-ness proxy: <b, Wb> > 0 and symmetric via random probes.
  EXPECT_GT(dot(b, y), 0.0);
  const Vector b2 = random_rhs(144, 43);
  Vector y2(144, 0.0);
  solver.apply_preconditioner(b2, y2);
  EXPECT_NEAR(dot(y, b2), dot(b, y2), 1e-8 * norm2(b) * norm2(b2));
}

}  // namespace
}  // namespace parlap
