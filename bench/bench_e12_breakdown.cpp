// E12 — component cost breakdown (the "simple and practical" claim):
// google-benchmark micro-measurements of every pipeline stage on a fixed
// 128x128 grid, so regressions in any stage are visible in isolation.
#include <benchmark/benchmark.h>

#include <numeric>

#include "common.hpp"
#include "core/alpha_bound.hpp"
#include "core/block_cholesky.hpp"
#include "core/five_dd.hpp"
#include "core/solver.hpp"
#include "core/terminal_walks.hpp"
#include "linalg/laplacian_op.hpp"

using namespace parlap;
using namespace parlap::bench;

namespace {

// Under --smoke the fixture shrinks so google-benchmark's auto-timing
// loop finishes quickly; JSON output comes from benchmark's own
// --benchmark_out, not the parlap reporter (see scripts/run_benches.sh).
const Multigraph& fixture_graph() {
  static const Multigraph g =
      make_family("grid2d", smoke() ? Vertex{48} : Vertex{128}, 3);
  return g;
}

const Multigraph& fixture_split() {
  static const Multigraph s = split_edges_uniform(fixture_graph(), 20);
  return s;
}

void BM_EdgeSplit(benchmark::State& state) {
  const Multigraph& g = fixture_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(split_edges_uniform(g, 20));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 20);
}
BENCHMARK(BM_EdgeSplit)->Unit(benchmark::kMillisecond);

void BM_FiveDdSubset(benchmark::State& state) {
  const Multigraph& s = fixture_split();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(five_dd_subset(s, seed++));
  }
  state.SetItemsProcessed(state.iterations() * s.num_edges());
}
BENCHMARK(BM_FiveDdSubset)->Unit(benchmark::kMillisecond);

struct Level0 {
  std::vector<Vertex> f_index, c_index;
  Vertex nf = 0, nc = 0;
};

const Level0& fixture_level0() {
  static const Level0 lvl = [] {
    const Multigraph& s = fixture_split();
    const FiveDdResult fdd = five_dd_subset(s, 5);
    Level0 out;
    const Vertex n = s.num_vertices();
    out.f_index.assign(static_cast<std::size_t>(n), kInvalidVertex);
    out.c_index.assign(static_cast<std::size_t>(n), kInvalidVertex);
    for (std::size_t i = 0; i < fdd.f.size(); ++i) {
      out.f_index[static_cast<std::size_t>(fdd.f[i])] =
          static_cast<Vertex>(i);
    }
    for (Vertex v = 0; v < n; ++v) {
      if (out.f_index[static_cast<std::size_t>(v)] == kInvalidVertex) {
        out.c_index[static_cast<std::size_t>(v)] = out.nc++;
      }
    }
    out.nf = static_cast<Vertex>(fdd.f.size());
    return out;
  }();
  return lvl;
}

void BM_WalkGraphBuild(benchmark::State& state) {
  const Multigraph& s = fixture_split();
  const Level0& lvl = fixture_level0();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_walk_graph(s, lvl.f_index, lvl.nf));
  }
  state.SetItemsProcessed(state.iterations() * s.num_edges());
}
BENCHMARK(BM_WalkGraphBuild)->Unit(benchmark::kMillisecond);

void BM_TerminalWalks(benchmark::State& state) {
  const Multigraph& s = fixture_split();
  const Level0& lvl = fixture_level0();
  const WalkGraph wg = build_walk_graph(s, lvl.f_index, lvl.nf);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(terminal_walks(s, wg, lvl.f_index, lvl.c_index,
                                            lvl.nc, seed++, 0));
  }
  state.SetItemsProcessed(state.iterations() * s.num_edges());
}
BENCHMARK(BM_TerminalWalks)->Unit(benchmark::kMillisecond);

void BM_ChainFactor(benchmark::State& state) {
  const Multigraph& s = fixture_split();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BlockCholeskyChain::build(s, seed++));
  }
  state.SetItemsProcessed(state.iterations() * s.num_edges());
}
BENCHMARK(BM_ChainFactor)->Unit(benchmark::kMillisecond);

void BM_PreconditionerApply(benchmark::State& state) {
  const Multigraph& s = fixture_split();
  static const BlockCholeskyChain chain = BlockCholeskyChain::build(s, 7);
  static ApplyWorkspace ws;
  const Vector b = random_rhs(s.num_vertices(), 9);
  Vector y(b.size());
  for (auto _ : state) {
    chain.apply(b, y, ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * chain.stored_entries());
}
BENCHMARK(BM_PreconditionerApply)->Unit(benchmark::kMillisecond);

void BM_LaplacianMatvec(benchmark::State& state) {
  static const LaplacianOperator op(fixture_graph());
  const Vector x = random_rhs(op.dimension(), 11);
  Vector y(x.size());
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * op.num_multi_edges());
}
BENCHMARK(BM_LaplacianMatvec)->Unit(benchmark::kMillisecond);

void BM_FullSolve(benchmark::State& state) {
  static LaplacianSolver solver(fixture_graph());
  const Vector b = random_rhs(fixture_graph().num_vertices(), 13);
  Vector x(b.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(b, x, 1e-8));
  }
}
BENCHMARK(BM_FullSolve)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
