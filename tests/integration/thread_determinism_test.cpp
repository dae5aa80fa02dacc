// Determinism under varying OpenMP thread counts, for every randomized
// component. This is the property that makes the parallel implementation
// debuggable: any run is reproducible serially.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <omp.h>

#include "core/alpha_bound.hpp"
#include "core/approx_schur.hpp"
#include "core/block_cholesky.hpp"
#include "core/five_dd.hpp"
#include "core/sparsify.hpp"
#include "core/spanning_tree.hpp"
#include "graph/generators.hpp"
#include "parallel/for_each.hpp"

namespace parlap {
namespace {

/// Runs `fn` at 1 thread and at max threads, returning both results.
template <typename Fn>
auto with_thread_counts(Fn&& fn) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  auto serial = fn();
  omp_set_num_threads(saved);
  auto parallel = fn();
  return std::pair{std::move(serial), std::move(parallel)};
}

void expect_same_graph(const Multigraph& a, const Multigraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e));
    EXPECT_EQ(a.edge_v(e), b.edge_v(e));
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e));  // bit-exact
  }
}

TEST(ThreadDeterminism, FiveDdSubset) {
  const Multigraph g = make_erdos_renyi(2000, 10000, 3);
  const auto [serial, parallel] = with_thread_counts([&] {
    return five_dd_subset(g, 7).f;
  });
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadDeterminism, BlockCholeskyApply) {
  const Multigraph g = make_grid2d(25, 25);
  const auto [serial, parallel] = with_thread_counts([&] {
    const BlockCholeskyChain chain = BlockCholeskyChain::build(g, 9);
    Vector b(static_cast<std::size_t>(g.num_vertices()));
    std::iota(b.begin(), b.end(), 0.0);
    project_out_ones(b);
    Vector y(b.size());
    chain.apply(b, y);
    return y;
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);
  }
}

/// Appends every value of `s` to `out` as its bit pattern.
template <typename T>
void append_bits(std::vector<std::uint64_t>& out, std::span<const T> s) {
  out.push_back(s.size());
  for (const T& v : s) {
    if constexpr (sizeof(T) == 8) {
      out.push_back(std::bit_cast<std::uint64_t>(v));
    } else {
      out.push_back(std::bit_cast<std::uint32_t>(v));
    }
  }
}

/// Appends the whole value store, base factor included.
template <typename T>
void append_values(std::vector<std::uint64_t>& out, const ChainValues<T>& v) {
  for (const auto* arr : {&v.inv_x, &v.y_diag, &v.w, &v.base}) {
    append_bits<T>(out, *arr);
  }
}

/// Everything one chain build decides, apart from its timings.
struct BuildRecord {
  /// Every packed ApplyChain array (the value store whole) and level
  /// record: the fp64 chain's, then the fp32 chain's.
  std::vector<std::uint64_t> chain;
  /// levels, edges_scanned and walked; then per level f_size and walked.
  std::vector<std::int64_t> counters;
  /// Per level: walked, dropped_loops, total_steps, max_walk_len, retries,
  /// resampled.
  std::vector<std::int64_t> walks;
};

void append_walk_stats(std::vector<std::int64_t>& out, const WalkStats& w) {
  out.insert(out.end(), {w.walked, w.dropped_loops, w.total_steps,
                         w.max_walk_len, w.retries, w.resampled});
}

BuildRecord record_builds(const Multigraph& g, std::uint64_t seed) {
  BuildRecord r;
  for (const Precision p : {Precision::kFp64, Precision::kFp32}) {
    BlockCholeskyOptions opts;
    opts.precision = p;
    const BlockCholeskyChain chain = BlockCholeskyChain::build(g, seed, opts);
    const ApplyChain& a = chain.apply_chain();
    for (const ApplyChain::Level& l : a.levels()) {
      r.chain.insert(r.chain.end(),
                     {static_cast<std::uint64_t>(l.n),
                      static_cast<std::uint64_t>(l.nf),
                      static_cast<std::uint64_t>(l.nc),
                      static_cast<std::uint64_t>(l.cf_rows), l.f_base,
                      l.cf_base, l.ff_off, l.fc_off, l.cf_off});
    }
    append_bits(r.chain, a.f_lists());
    append_bits(r.chain, a.slots());
    append_bits(r.chain, a.cf_slots());
    append_bits(r.chain, a.offsets());
    append_bits(r.chain, a.columns());
    if (p == Precision::kFp64) {
      append_values(r.chain, a.values<double>());
    } else {
      append_values(r.chain, a.values<float>());
    }
    if (p == Precision::kFp32) continue;  // fp32 changes only the packing
    const BuildStats& bs = chain.build_stats();
    r.counters = {bs.levels, bs.edges_scanned, bs.walked};
    for (const BuildLevelTiming& lt : bs.level_timings) {
      r.counters.insert(r.counters.end(), {lt.f_size, lt.walked});
    }
    for (const LevelStats& ls : chain.level_stats()) {
      append_walk_stats(r.walks, ls.walks);
    }
  }
  return r;
}

void expect_same_record(const BuildRecord& want, const BuildRecord& got,
                        const std::string& label) {
  EXPECT_TRUE(got.chain == want.chain) << label << ": packed chain differs";
  EXPECT_EQ(got.counters, want.counters) << label;
  EXPECT_EQ(got.walks, want.walks) << label;
}

TEST(ThreadDeterminism, ChainBuildSplitByVolume) {
  // barbell:200 split as LaplacianSolver's first round splits it: its deep
  // levels eliminate at most 16 F vertices yet walk tens of thousands of
  // edges, so every per-level pass forks on volume. The build must decide
  // the same chain, counters and walk statistics at every thread count
  // and under a SerialScope.
  const Multigraph base = make_barbell(200, 100);
  const Multigraph g = split_edges_uniform(
      base, default_split_copies(base.num_vertices(), 0.05));
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const BuildRecord serial = record_builds(g, 2024);
  for (const int t : {2, 3, 4}) {
    omp_set_num_threads(t);
    expect_same_record(serial, record_builds(g, 2024),
                       std::to_string(t) + " threads");
  }
  omp_set_num_threads(saved);
  {
    const SerialScope scope;
    expect_same_record(serial, record_builds(g, 2024), "SerialScope");
  }

  // Each F-incident edge walks once per draw of its component: the
  // serial build's work counts equal those of the build pinned in
  // BlockCholesky.MatchesRecordedChains (same graph, split and seed),
  // taken when it was recorded. A walk run twice rewrites its slot with
  // the same edge; its doubled counts are what shows it.
  std::int64_t total_steps = 0;
  for (std::size_t i = 0; i < serial.walks.size(); i += 6) {
    total_steps += serial.walks[i + 2];
  }
  EXPECT_EQ(serial.counters[2], 642073);  // walked
  EXPECT_EQ(total_steps, 684759);

  // The connectivity guard redraws a component on a level whose walks
  // and check fork.
  bool forked_redraw = false;
  for (std::size_t i = 0; i < serial.walks.size(); i += 6) {
    forked_redraw |= serial.walks[i + 5] > 0 && serial.walks[i] >= kForkEntries;
  }
  EXPECT_TRUE(forked_redraw);

  // The forks are really reached: some level has at most 16 F rows, so
  // few that handing out rows 16 at a time would walk them on one thread,
  // yet walks more edges than the fork cutoff.
  bool deep_fork = false;
  for (std::size_t i = 3; i + 1 < serial.counters.size(); i += 2) {
    deep_fork |=
        serial.counters[i] <= 16 && serial.counters[i + 1] >= kForkEntries;
  }
  EXPECT_TRUE(deep_fork);
}

TEST(ThreadDeterminism, ApproxSchur) {
  const Multigraph g = make_erdos_renyi(600, 3000, 5);
  std::vector<Vertex> c(40);
  std::iota(c.begin(), c.end(), Vertex{0});
  const auto [serial, parallel] = with_thread_counts(
      [&] { return approx_schur(g, c, 11).schur; });
  expect_same_graph(serial, parallel);
}

TEST(ThreadDeterminism, SpanningTree) {
  const Multigraph g = make_grid2d(15, 15);
  const auto [serial, parallel] =
      with_thread_counts([&] { return sample_spanning_tree(g, 13); });
  expect_same_graph(serial, parallel);
}

TEST(ThreadDeterminism, Sparsifier) {
  const Multigraph g = make_complete(120);
  const auto [serial, parallel] = with_thread_counts(
      [&] { return spectral_sparsify(g, 0.5, 15).graph; });
  expect_same_graph(serial, parallel);
}

TEST(ThreadDeterminism, ApproxSchurSplitByVolume) {
  // A split barbell reduced onto half of one clique: levels of a few F
  // vertices walk thousands of edges each, past the fork cutoff.
  const Multigraph g = split_edges_uniform(make_barbell(60, 30), 16);
  std::vector<Vertex> c(30);
  std::iota(c.begin(), c.end(), Vertex{0});
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const ApproxSchurResult serial = approx_schur(g, c, 11);
  omp_set_num_threads(4);
  const ApproxSchurResult parallel = approx_schur(g, c, 11);
  omp_set_num_threads(saved);
  expect_same_graph(serial.schur, parallel.schur);
  ASSERT_EQ(serial.levels, parallel.levels);
  std::vector<std::int64_t> serial_walks;
  std::vector<std::int64_t> parallel_walks;
  bool forks = false;
  for (int k = 0; k < serial.levels; ++k) {
    const auto kz = static_cast<std::size_t>(k);
    append_walk_stats(serial_walks, serial.walk_stats[kz]);
    append_walk_stats(parallel_walks, parallel.walk_stats[kz]);
    forks |= serial.walk_stats[kz].walked >= kForkEntries;
  }
  EXPECT_EQ(serial_walks, parallel_walks);
  EXPECT_TRUE(forks);
}

}  // namespace
}  // namespace parlap
