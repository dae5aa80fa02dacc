// Blocked-solve determinism contract (the acceptance property of the
// panel path): solve_many / solve_panel results are bit-identical to a
// sequential loop of solve() across block widths {1, 3, 8} and OpenMP
// thread counts 1 vs 4, chain-level panel applies equal scalar applies
// column for column, a 16-wide panel keeps its bits at every SIMD
// dispatch level, and a pooled ApplyWorkspace re-prepared across block
// widths and storage precisions never reuses stale scratch.
// Labeled core+parallel+panel so the TSan preset runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include <omp.h>

#include "api/solver_registry.hpp"
#include "core/alpha_bound.hpp"
#include "core/block_cholesky.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/panel.hpp"
#include "support/rng.hpp"

namespace parlap {
namespace {

Vector random_rhs_vec(std::size_t n, std::uint64_t seed) {
  Vector b(n);
  Rng rng(seed, RngTag::kTest, 321);
  for (double& v : b) v = rng.next_in(-1.0, 1.0);
  return b;
}

/// Two components (ws + grid), so the panel path crosses the
/// per-component gather/scatter and kernel projection.
Multigraph two_component_graph() {
  const Multigraph a = make_watts_strogatz(140, 4, 0.2, 9);
  const Multigraph b = make_grid2d(8, 8);
  Multigraph g(a.num_vertices() + b.num_vertices());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    g.add_edge(a.edge_u(e), a.edge_v(e), a.edge_weight(e));
  }
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    g.add_edge(a.num_vertices() + b.edge_u(e),
               a.num_vertices() + b.edge_v(e), b.edge_weight(e));
  }
  return g;
}

void expect_bitwise(const Vector& a, const Vector& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " differs at " << i;
  }
}

TEST(PanelSolve, ChainPanelApplyMatchesScalarApplyPerColumn) {
  const Multigraph split = split_edges_uniform(make_grid2d(20, 20), 4);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 5);
  const auto n = static_cast<std::size_t>(chain.dimension());

  const std::size_t k = 5;
  Panel b(n, k);
  for (std::size_t c = 0; c < k; ++c) {
    const Vector bc = random_rhs_vec(n, 100 + c);
    std::copy(bc.begin(), bc.end(), b.col(c).begin());
  }

  // Scalar reference, one workspace reused like a pooled caller would.
  ApplyWorkspace ws;
  std::vector<Vector> want;
  for (std::size_t c = 0; c < k; ++c) {
    Vector y(n);
    chain.apply(b.col(c), y, ws);
    want.push_back(std::move(y));
  }

  // Same workspace crosses k=1 -> k=5: the width-aware identity stamp
  // must re-prepare it (a stale k=1 workspace would be undersized).
  Panel y_panel;
  chain.apply(b, y_panel, ws);
  for (std::size_t c = 0; c < k; ++c) {
    const Vector got(y_panel.col(c).begin(), y_panel.col(c).end());
    expect_bitwise(got, want[c], "panel apply column");
  }
  // And back down to k=1 with the same workspace.
  Vector y1(n);
  chain.apply(b.col(2), y1, ws);
  expect_bitwise(y1, want[2], "k=1 after panel");
}

TEST(PanelSolve, WorkspaceSharedAcrossPrecisionsMatchesFreshOnes) {
  // One workspace alternates between an fp64 and an fp32 chain of the
  // same graph, at widths 1 and 8: each storage type sizes its own
  // buffer set, and every apply gives the bits of a fresh workspace.
  const Multigraph split = split_edges_uniform(make_grid2d(20, 20), 4);
  BlockCholeskyOptions fp32;
  fp32.precision = Precision::kFp32;
  const BlockCholeskyChain f64_chain = BlockCholeskyChain::build(split, 5);
  const BlockCholeskyChain f32_chain =
      BlockCholeskyChain::build(split, 5, fp32);
  const auto n = static_cast<std::size_t>(f64_chain.dimension());

  ApplyWorkspace shared;
  for (int round = 0; round < 2; ++round) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{8}}) {
      Panel b(n, k);
      for (std::size_t c = 0; c < k; ++c) {
        const Vector bc = random_rhs_vec(n, 200 + 10 * round + c);
        std::copy(bc.begin(), bc.end(), b.col(c).begin());
      }
      for (const BlockCholeskyChain* chain : {&f64_chain, &f32_chain}) {
        ApplyWorkspace fresh;
        Panel want;
        Panel got;
        chain->apply(b, want, fresh);
        chain->apply(b, got, shared);
        for (std::size_t c = 0; c < k; ++c) {
          expect_bitwise(Vector(got.col(c).begin(), got.col(c).end()),
                         Vector(want.col(c).begin(), want.col(c).end()),
                         "shared workspace column");
        }
      }
    }
  }
}

TEST(PanelSolve, SolveManyBitIdenticalToSequentialAcrossWidthsAndThreads) {
  const Multigraph g = two_component_graph();
  const std::size_t n = g.num_vertices();
  const std::size_t jobs = 8;
  std::vector<Vector> bs;
  for (std::size_t j = 0; j < jobs; ++j) {
    bs.push_back(random_rhs_vec(n, 50 + j));
  }
  const double eps = 1e-8;

  const int saved = omp_get_max_threads();
  // Sequential scalar reference at 1 thread.
  omp_set_num_threads(1);
  std::vector<Vector> want(jobs, Vector(n));
  std::vector<SolveStats> want_stats;
  {
    SolverOptions opts;
    opts.seed = 11;
    const LaplacianSolver solver(g, opts);
    for (std::size_t j = 0; j < jobs; ++j) {
      want_stats.push_back(solver.solve(bs[j], want[j], eps));
      EXPECT_TRUE(want_stats.back().converged) << "rhs " << j;
    }
  }

  for (const int threads : {1, std::min(4, saved)}) {
    omp_set_num_threads(threads);
    for (const int width : {1, 3, 8}) {
      SolverOptions opts;
      opts.seed = 11;
      opts.max_block_width = width;
      const LaplacianSolver solver(g, opts);
      std::vector<Vector> xs(jobs, Vector(n));
      const std::vector<SolveStats> stats =
          solver.solve_many(bs, xs, eps);
      ASSERT_EQ(stats.size(), jobs);
      for (std::size_t j = 0; j < jobs; ++j) {
        expect_bitwise(xs[j], want[j], "solve_many solution");
        EXPECT_EQ(stats[j].iterations, want_stats[j].iterations)
            << "width " << width << " threads " << threads << " rhs " << j;
        EXPECT_EQ(stats[j].relative_residual,
                  want_stats[j].relative_residual);
        EXPECT_EQ(stats[j].converged, want_stats[j].converged);
        EXPECT_EQ(stats[j].rebuilds, want_stats[j].rebuilds);
      }

      // solve_panel: the whole batch as one panel.
      Panel bp;
      panel_from_vectors(bs, bp);
      Panel xp;
      const std::vector<SolveStats> pstats =
          solver.solve_panel(bp, xp, eps);
      ASSERT_EQ(pstats.size(), jobs);
      for (std::size_t j = 0; j < jobs; ++j) {
        const Vector got(xp.col(j).begin(), xp.col(j).end());
        expect_bitwise(got, want[j], "solve_panel column");
        EXPECT_EQ(pstats[j].iterations, want_stats[j].iterations);
      }
    }
  }
  omp_set_num_threads(saved);
}

TEST(PanelSolve, WidePanelKeepsScalarBitsAtEveryDispatchLevel) {
  // 16 columns fill whole vector registers at every tier (AVX2: 4 fp64
  // or 8 fp32 lanes, AVX-512: 8 or 16), so the chain sweeps run their
  // vector lanes; a narrower panel would delegate to the scalar
  // reference. set_simd_level is process-wide, so the active level is
  // restored at the end.
  const Multigraph g = make_grid2d(24, 24);
  const std::size_t n = g.num_vertices();
  const std::size_t k = 16;
  Panel b(n, k);
  for (std::size_t c = 0; c < k; ++c) {
    const Vector bc = random_rhs_vec(n, 700 + c);
    std::copy(bc.begin(), bc.end(), b.col(c).begin());
  }
  const kernels::SimdLevel saved = kernels::active_simd_level();
  for (const Precision precision : {Precision::kFp64, Precision::kFp32}) {
    SolverOptions opts;
    opts.seed = 13;
    opts.precision = precision;
    const LaplacianSolver solver(g, opts);
    kernels::set_simd_level(kernels::SimdLevel::kScalar);
    Panel want;
    const std::vector<SolveStats> want_stats =
        solver.solve_panel(b, want, 1e-8);
    for (const kernels::SimdLevel lvl :
         {kernels::SimdLevel::kAvx2, kernels::SimdLevel::kAvx512}) {
      if (!kernels::simd_level_available(lvl)) continue;
      kernels::set_simd_level(lvl);
      Panel got;
      const std::vector<SolveStats> stats = solver.solve_panel(b, got, 1e-8);
      for (std::size_t c = 0; c < k; ++c) {
        EXPECT_TRUE(stats[c].converged);
        EXPECT_EQ(stats[c].iterations, want_stats[c].iterations);
        expect_bitwise(Vector(got.col(c).begin(), got.col(c).end()),
                       Vector(want.col(c).begin(), want.col(c).end()),
                       kernels::simd_level_name(lvl));
      }
    }
  }
  kernels::set_simd_level(saved);
}

TEST(PanelSolve, AnySolverPanelReportsMatchScalarPerRhs) {
  // The api layer: solve_panel returns per-RHS reports whose solutions,
  // iteration counts, and residuals (measured against the input
  // operator, never a panel max) equal a loop of solve() — for the
  // blocked paper solver and for a loop-fallback baseline alike.
  const Multigraph g = make_watts_strogatz(120, 4, 0.1, 3);
  const std::size_t n = g.num_vertices();
  const std::size_t jobs = 5;
  std::vector<Vector> bs;
  for (std::size_t j = 0; j < jobs; ++j) {
    bs.push_back(random_rhs_vec(n, 900 + j));
  }
  for (const char* method : {"parlap", "cg"}) {
    SolverConfig config;
    config.seed = 21;
    const auto solver = SolverRegistry::instance().create(method, g, config);

    std::vector<Vector> want(jobs, Vector(n));
    std::vector<RunReport> want_reports;
    for (std::size_t j = 0; j < jobs; ++j) {
      want_reports.push_back(solver->solve(bs[j], want[j], 1e-8));
    }

    std::vector<Vector> xs(jobs);
    const std::vector<RunReport> reports =
        solver->solve_panel(bs, xs, 1e-8);
    ASSERT_EQ(reports.size(), jobs) << method;
    for (std::size_t j = 0; j < jobs; ++j) {
      expect_bitwise(xs[j], want[j], method);
      EXPECT_EQ(reports[j].iterations, want_reports[j].iterations);
      EXPECT_EQ(reports[j].relative_residual,
                want_reports[j].relative_residual)
          << method << " rhs " << j;
      EXPECT_EQ(reports[j].converged, want_reports[j].converged);
      EXPECT_EQ(reports[j].panel_width, static_cast<int>(jobs));
    }
  }
}

TEST(PanelSolve, ZeroColumnsComeBackZeroInsidePanels) {
  const Multigraph g = make_grid2d(9, 9);
  const std::size_t n = g.num_vertices();
  std::vector<Vector> bs = {random_rhs_vec(n, 1), Vector(n, 0.0),
                            random_rhs_vec(n, 2)};
  SolverConfig config;
  const auto solver = SolverRegistry::instance().create("parlap", g, config);
  std::vector<Vector> xs(bs.size());
  const std::vector<RunReport> reports = solver->solve_panel(bs, xs, 1e-8);
  EXPECT_TRUE(reports[1].converged);
  EXPECT_EQ(reports[1].iterations, 0);
  for (const double v : xs[1]) EXPECT_EQ(v, 0.0);
  // Flanking nonzero columns still solve.
  EXPECT_TRUE(reports[0].converged);
  EXPECT_TRUE(reports[2].converged);
}

}  // namespace
}  // namespace parlap
