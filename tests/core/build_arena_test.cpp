// Chain-equivalence contract of the arena-backed build pipeline
// (core/build_arena.hpp): the chain BlockCholeskyChain::build produces
// must be bit-identical whether scratch comes from the shared pool, a
// fresh arena, or an arena already warmed by previous builds — across
// thread counts and across repeated builds — and a warmed arena must
// rebuild with zero scratch reallocations.
#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include <omp.h>

#include "core/alpha_bound.hpp"
#include "core/block_cholesky.hpp"
#include "core/build_arena.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "linalg/vector_ops.hpp"

namespace parlap {
namespace {

std::uint64_t solution_hash(std::span<const double> x) {
  std::uint64_t h = 0x736F6C75'74696F6Eull;
  h = fingerprint_mix(h, static_cast<std::uint64_t>(x.size()));
  for (const double v : x) {
    h = fingerprint_mix(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

Vector apply_chain(const BlockCholeskyChain& chain) {
  Vector b(static_cast<std::size_t>(chain.dimension()));
  std::iota(b.begin(), b.end(), 0.0);
  project_out_ones(b);
  Vector y(b.size());
  chain.apply(b, y);
  return y;
}

template <typename T>
void expect_same_span(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

void expect_same_chain(const BlockCholeskyChain& a,
                       const BlockCholeskyChain& b) {
  ASSERT_EQ(a.dimension(), b.dimension());
  ASSERT_EQ(a.depth(), b.depth());
  EXPECT_EQ(a.base_size(), b.base_size());
  EXPECT_EQ(a.jacobi_terms(), b.jacobi_terms());
  EXPECT_EQ(a.stored_entries(), b.stored_entries());
  // The packed ApplyChain arrays cover every level's F list, slots, Jacobi
  // diagonals, and sub-CSR blocks; bit-equality of the arrays (plus the
  // per-level metadata) is bit-equality of the whole factorization.
  const ApplyChain& pa = a.apply_chain();
  const ApplyChain& pb = b.apply_chain();
  ASSERT_EQ(pa.levels().size(), pb.levels().size());
  for (std::size_t k = 0; k < pa.levels().size(); ++k) {
    const ApplyChain::Level& la = pa.levels()[k];
    const ApplyChain::Level& lb = pb.levels()[k];
    EXPECT_EQ(la.n, lb.n);
    EXPECT_EQ(la.nf, lb.nf);
    EXPECT_EQ(la.nc, lb.nc);
    EXPECT_EQ(la.f_base, lb.f_base);
    EXPECT_EQ(la.cf_rows, lb.cf_rows);
    EXPECT_EQ(la.cf_base, lb.cf_base);
    EXPECT_EQ(la.ff_off, lb.ff_off);
    EXPECT_EQ(la.fc_off, lb.fc_off);
    EXPECT_EQ(la.cf_off, lb.cf_off);
  }
  expect_same_span(pa.f_lists(), pb.f_lists());
  expect_same_span(pa.cf_slots(), pb.cf_slots());
  expect_same_span(pa.slots(), pb.slots());
  expect_same_span(pa.inv_x(), pb.inv_x());
  expect_same_span(pa.y_diag(), pb.y_diag());
  expect_same_span(pa.offsets(), pb.offsets());
  expect_same_span(pa.columns(), pb.columns());
  expect_same_span(pa.weights(), pb.weights());  // bit-exact
  const Vector ya = apply_chain(a);
  const Vector yb = apply_chain(b);
  EXPECT_EQ(solution_hash(ya), solution_hash(yb));
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

Multigraph test_graph() {
  return split_edges_uniform(make_grid2d(22, 22), 4);
}

TEST(ChainBuildArena, ArenaBuildMatchesPooledAndFreshBuilds) {
  const Multigraph g = test_graph();
  const BlockCholeskyChain pooled = BlockCholeskyChain::build(g, 5);
  ASSERT_GT(pooled.depth(), 1);

  ChainBuildArena fresh;
  const BlockCholeskyChain fresh_built =
      BlockCholeskyChain::build(g, 5, {}, fresh);
  expect_same_chain(pooled, fresh_built);

  // The same arena, reused: still bit-identical, build after build.
  ChainBuildArena reused;
  for (int round = 0; round < 3; ++round) {
    const BlockCholeskyChain again =
        BlockCholeskyChain::build(g, 5, {}, reused);
    expect_same_chain(pooled, again);
  }
}

TEST(ChainBuildArena, EquivalentAcrossThreadCounts) {
  // OMP_NUM_THREADS ∈ {1, min(4, available)}: under sanitizer presets
  // that pin OpenMP to one thread both runs are serial (and trivially
  // equal); on a normal machine this crosses 1 vs 4 threads.
  const Multigraph g = test_graph();
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const BlockCholeskyChain serial = BlockCholeskyChain::build(g, 11);
  omp_set_num_threads(std::min(4, saved));
  ChainBuildArena arena;
  const BlockCholeskyChain parallel =
      BlockCholeskyChain::build(g, 11, {}, arena);
  omp_set_num_threads(saved);
  expect_same_chain(serial, parallel);
}

TEST(ChainBuildArena, SteadyStateBuildsPerformZeroReallocations) {
  const Multigraph g = test_graph();
  ChainBuildArena arena;
  const BlockCholeskyChain first = BlockCholeskyChain::build(g, 7, {}, arena);
  // The very first build grows every buffer from empty.
  EXPECT_GT(first.build_stats().arena_allocations, 0);
  EXPECT_GT(first.build_stats().peak_arena_bytes, 0u);
  for (int round = 0; round < 2; ++round) {
    const BlockCholeskyChain rebuilt =
        BlockCholeskyChain::build(g, 7, {}, arena);
    EXPECT_EQ(rebuilt.build_stats().arena_allocations, 0)
        << "steady-state rebuild " << round << " grew arena scratch";
    expect_same_chain(first, rebuilt);
  }
}

TEST(ChainBuildArena, ConsumingOverloadMatchesAndReleasesInput) {
  const Multigraph g = test_graph();
  const BlockCholeskyChain from_view = BlockCholeskyChain::build(g, 3);
  Multigraph copy = g;
  const BlockCholeskyChain from_move =
      BlockCholeskyChain::build(std::move(copy), 3);
  expect_same_chain(from_view, from_move);
}

TEST(ChainBuildArena, BuildStatsAreCoherent) {
  const Multigraph g = test_graph();
  const BlockCholeskyChain chain = BlockCholeskyChain::build(g, 9);
  const BuildStats& bs = chain.build_stats();
  EXPECT_EQ(bs.levels, chain.depth());
  EXPECT_EQ(bs.level_timings.size(),
            static_cast<std::size_t>(chain.depth()));
  EXPECT_GE(bs.total_seconds, 0.0);
  EXPECT_GE(bs.base_seconds, 0.0);
  // Phase totals are a partial breakdown of the whole build.
  EXPECT_LE(bs.phases.total(), bs.total_seconds + 1e-9);
  EXPECT_EQ(bs.level_timings.front().n, g.num_vertices());
  EXPECT_EQ(bs.level_timings.front().edges, g.num_edges());
  double level_sum = 0.0;
  EdgeId scanned = 0;
  EdgeId walked = 0;
  for (const BuildLevelTiming& lt : bs.level_timings) {
    level_sum += lt.phases.total();
    scanned += lt.edges_scanned;
    walked += lt.walked;
  }
  EXPECT_NEAR(level_sum, bs.phases.total(), 1e-9);

  // The work counters are exact: per level, every 5-DD round sweeps at
  // least the level's live edges and at most one walk runs per edge;
  // the totals are the per-level sums, and they repeat at any thread
  // count.
  EXPECT_EQ(bs.edges_scanned, scanned);
  EXPECT_EQ(bs.walked, walked);
  for (std::size_t k = 0; k < bs.level_timings.size(); ++k) {
    const BuildLevelTiming& lt = bs.level_timings[k];
    const LevelStats& ls = chain.level_stats()[k];
    EXPECT_GE(lt.edges_scanned, lt.edges) << "level " << k;
    EXPECT_EQ(lt.walked, ls.walks.walked) << "level " << k;
    EXPECT_LE(ls.walks.walked, ls.walks.edges_in) << "level " << k;
  }
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    const BlockCholeskyChain again = BlockCholeskyChain::build(g, 9);
    const BuildStats& other = again.build_stats();
    EXPECT_EQ(other.edges_scanned, bs.edges_scanned) << threads << " threads";
    EXPECT_EQ(other.walked, bs.walked) << threads << " threads";
    ASSERT_EQ(other.level_timings.size(), bs.level_timings.size());
    for (std::size_t k = 0; k < bs.level_timings.size(); ++k) {
      EXPECT_EQ(other.level_timings[k].edges_scanned,
                bs.level_timings[k].edges_scanned)
          << "level " << k << ", " << threads << " threads";
      EXPECT_EQ(other.level_timings[k].walked, bs.level_timings[k].walked)
          << "level " << k << ", " << threads << " threads";
    }
  }
  omp_set_num_threads(saved);
}

}  // namespace
}  // namespace parlap
