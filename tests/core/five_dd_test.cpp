// 5DDSubset tests (Lemma 3.4): the returned set is genuinely 5-DD, large
// enough, found in few rounds, deterministic, and correct on induced
// subgraphs (the ApproxSchur variant).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/five_dd.hpp"
#include "graph/generators.hpp"

namespace parlap {
namespace {

FiveDdResult run(const Multigraph& g, std::uint64_t seed,
                 const FiveDdOptions& opts = {}) {
  return five_dd_subset(g, seed, opts);
}

class FiveDdFamilyTest : public ::testing::TestWithParam<int> {
 protected:
  Multigraph graph() const {
    switch (GetParam()) {
      case 0:
        return make_grid2d(30, 30);
      case 1:
        return make_random_regular(1000, 4, 1);
      case 2:
        return make_erdos_renyi(800, 4000, 2);
      case 3: {
        Multigraph g = make_rmat(10, 6000, 3);
        apply_weights(g, WeightModel::power_law(0.1, 100.0, 2.5), 4);
        return g;
      }
      case 4:
        return make_barbell(80, 40);
      default:
        return make_star(500);
    }
  }
};

TEST_P(FiveDdFamilyTest, ResultIsFiveDd) {
  const Multigraph g = graph();
  const FiveDdResult r = run(g, 7);
  EXPECT_TRUE(is_five_dd(g, r.f));
}

TEST_P(FiveDdFamilyTest, SizeAtLeastTarget) {
  const Multigraph g = graph();
  const FiveDdResult r = run(g, 7);
  EXPECT_GE(r.f.size(),
            static_cast<std::size_t>(g.num_vertices()) / 40);
}

TEST_P(FiveDdFamilyTest, FewRounds) {
  const Multigraph g = graph();
  const FiveDdResult r = run(g, 7);
  // Lemma 3.4: each round succeeds w.p. >= 1/2; 20 rounds is p <= 1e-6.
  EXPECT_LE(r.rounds, 20);
}

TEST_P(FiveDdFamilyTest, Deterministic) {
  const Multigraph g = graph();
  const FiveDdResult a = run(g, 9);
  const FiveDdResult b = run(g, 9);
  EXPECT_EQ(a.f, b.f);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST_P(FiveDdFamilyTest, BoostKeepsFiveDdAndNeverShrinks) {
  const Multigraph g = graph();
  FiveDdOptions opts;
  const FiveDdResult plain = run(g, 11, opts);
  opts.boost_rounds = 3;
  const FiveDdResult boosted = run(g, 11, opts);
  EXPECT_TRUE(is_five_dd(g, boosted.f));
  EXPECT_GE(boosted.f.size(), plain.f.size());
}

INSTANTIATE_TEST_SUITE_P(Families, FiveDdFamilyTest, ::testing::Range(0, 6));

TEST(FiveDd, SingleVertexCandidateIsAccepted) {
  const Multigraph g = make_path(10);
  const std::vector<Vertex> cand{4};
  const FiveDdResult r = five_dd_subset(g, cand, 1);
  EXPECT_EQ(r.f, cand);  // a singleton is always 5-DD
}

TEST(FiveDd, InducedSubgraphVariant) {
  // Candidates = one half of a barbell; degrees measured within G[U].
  const Multigraph g = make_barbell(40, 10);
  std::vector<Vertex> cand(40);
  std::iota(cand.begin(), cand.end(), Vertex{0});
  const FiveDdResult r = five_dd_subset(g, cand, 3);
  EXPECT_FALSE(r.f.empty());
  for (const Vertex v : r.f) EXPECT_LT(v, 40);
  EXPECT_TRUE(is_five_dd(g, r.f, cand));
}

TEST(FiveDd, InducedFiveDdImpliesGlobalFiveDd) {
  // The §7 observation: a 5-DD subset of an induced subgraph is 5-DD in
  // the whole graph (full degrees only grow).
  const Multigraph g = make_erdos_renyi(300, 2000, 5);
  std::vector<Vertex> cand(150);
  std::iota(cand.begin(), cand.end(), Vertex{0});
  const FiveDdResult r = five_dd_subset(g, cand, 5);
  EXPECT_TRUE(is_five_dd(g, r.f, cand));
  EXPECT_TRUE(is_five_dd(g, r.f));  // also w.r.t. full degrees
}

TEST(FiveDd, IndependentSetInCompleteGraphIsSingleton) {
  // In K_n any two vertices are adjacent with deg n-1; a 5-DD set can
  // contain at most ~n/5 mutual neighbors; the filter must respect it.
  const Multigraph g = make_complete(60);
  const FiveDdResult r = run(g, 13);
  EXPECT_TRUE(is_five_dd(g, r.f));
}

TEST(FiveDd, DifferentSeedsDifferentSubsets) {
  const Multigraph g = make_grid2d(20, 20);
  const FiveDdResult a = run(g, 1);
  const FiveDdResult b = run(g, 2);
  EXPECT_NE(a.f, b.f);
}

TEST(FiveDd, TestDegreesAreWeightedDegrees) {
  // Past 2^15 edges, where degree sums were once cut into chunks: each S
  // row sums its entries in row order, which is edge order, so the 1/5
  // test divides by weighted_degrees()'s sum, bit for bit.
  Multigraph g = make_erdos_renyi(4000, 40000, 9);
  apply_weights(g, WeightModel::power_law(0.1, 100.0, 2.5), 10);
  ASSERT_GE(g.num_edges(), EdgeId{1} << 15);
  const std::vector<Weight> deg = g.weighted_degrees();
  LevelGraph lg;
  lg.assign(g);
  FiveDdScratch scratch;
  const FiveDdResult r =
      five_dd_subset(lg, lg.live(), FiveDdDegree::kFull, 7, {}, scratch);
  ASSERT_FALSE(r.f.empty());
  ASSERT_FALSE(scratch.sample.empty());
  for (const Vertex v : scratch.sample) {
    const double got = scratch.degree[static_cast<std::size_t>(
        lg.sample_position(v))];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(deg[static_cast<std::size_t>(v)]))
        << "vertex " << v;
  }
}

TEST(IsFiveDd, RejectsAdjacentPairWithLowDegree) {
  // Two adjacent degree-1 vertices: induced degree = full degree.
  Multigraph g(2);
  g.add_edge(0, 1, 1.0);
  const std::vector<Vertex> f{0, 1};
  EXPECT_FALSE(is_five_dd(g, f));
}

TEST(IsFiveDd, AcceptsIndependentSet) {
  const Multigraph g = make_path(10);
  const std::vector<Vertex> f{0, 2, 4, 6, 8};
  EXPECT_TRUE(is_five_dd(g, f));
}

}  // namespace
}  // namespace parlap
