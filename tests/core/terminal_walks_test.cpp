// TerminalWalks tests (Lemmas 5.1, 5.2, 5.4): unbiasedness against the
// exact dense Schur complement, alpha-boundedness preservation, the
// never-more-edges invariant, weight composition, and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/alpha_bound.hpp"
#include "core/five_dd.hpp"
#include "core/terminal_walks.hpp"
#include "graph/generators.hpp"
#include "linalg/dense.hpp"

namespace parlap {
namespace {

struct Partition {
  std::vector<Vertex> f_index;
  std::vector<Vertex> c_index;
  std::vector<Vertex> c_list;
  Vertex nf = 0;
  Vertex nc = 0;
};

Partition make_partition(const Multigraph& g, std::span<const Vertex> f) {
  Partition p;
  const Vertex n = g.num_vertices();
  p.f_index.assign(static_cast<std::size_t>(n), kInvalidVertex);
  p.c_index.assign(static_cast<std::size_t>(n), kInvalidVertex);
  for (std::size_t i = 0; i < f.size(); ++i) {
    p.f_index[static_cast<std::size_t>(f[i])] = static_cast<Vertex>(i);
  }
  for (Vertex v = 0; v < n; ++v) {
    if (p.f_index[static_cast<std::size_t>(v)] == kInvalidVertex) {
      p.c_index[static_cast<std::size_t>(v)] = static_cast<Vertex>(p.c_list.size());
      p.c_list.push_back(v);
    }
  }
  p.nf = static_cast<Vertex>(f.size());
  p.nc = static_cast<Vertex>(p.c_list.size());
  return p;
}

Multigraph run_walks(const Multigraph& g, const Partition& p,
                     std::uint64_t seed, WalkStats* stats = nullptr) {
  const WalkGraph wg = build_walk_graph(g, p.f_index, p.nf);
  return terminal_walks(g, wg, p.f_index, p.c_index, p.nc, seed, 0, stats);
}

TEST(WalkGraph, RowsContainAllIncidentEdges) {
  const Multigraph g = make_grid2d(5, 5);
  const std::vector<Vertex> f{0, 6, 12, 18, 24};
  const Partition p = make_partition(g, f);
  const WalkGraph wg = build_walk_graph(g, p.f_index, p.nf);
  EXPECT_EQ(wg.rows(), 5);
  const auto deg = g.weighted_degrees();
  for (std::size_t i = 0; i < f.size(); ++i) {
    double row_w = 0.0;
    for (EdgeId q = wg.off[i]; q < wg.off[i + 1]; ++q) {
      row_w += wg.w[static_cast<std::size_t>(q)];
    }
    EXPECT_NEAR(row_w, deg[static_cast<std::size_t>(f[i])], 1e-12);
  }
}

TEST(TerminalWalks, AllTerminalsIsIdentity) {
  // F empty: every walk is trivial and H == G exactly.
  Multigraph g = make_erdos_renyi(30, 90, 1);
  apply_weights(g, WeightModel::uniform(0.5, 2.0), 2);
  const Partition p = make_partition(g, {});
  WalkStats stats;
  const Multigraph h = run_walks(g, p, 3, &stats);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(stats.total_steps, 0);
  EXPECT_LT(laplacian_dense(h).max_abs_diff(laplacian_dense(g)), 1e-12);
}

TEST(TerminalWalks, NeverMoreEdges) {
  // Lemma 5.4 invariant across several families and seeds.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Multigraph g = make_erdos_renyi(200, 900, seed);
    const Multigraph split = split_edges_uniform(g, 3);
    const FiveDdResult fdd =
        five_dd_subset(split, seed);
    const Partition p = make_partition(split, fdd.f);
    WalkStats stats;
    const Multigraph h = run_walks(split, p, seed, &stats);
    EXPECT_LE(h.num_edges(), split.num_edges());
    EXPECT_EQ(stats.edges_out + stats.dropped_loops, stats.edges_in);
  }
}

TEST(TerminalWalks, Deterministic) {
  const Multigraph g = make_grid2d(12, 12);
  const FiveDdResult fdd = five_dd_subset(g, 5);
  const Partition p = make_partition(g, fdd.f);
  const Multigraph a = run_walks(g, p, 11);
  const Multigraph b = run_walks(g, p, 11);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e));
    EXPECT_EQ(a.edge_v(e), b.edge_v(e));
    EXPECT_DOUBLE_EQ(a.edge_weight(e), b.edge_weight(e));
  }
}

TEST(TerminalWalks, UnbiasedEstimatorOfSchurComplement) {
  // Lemma 5.1: E[L_H] = SC(L_G, C). Average many independent samples on a
  // small graph and compare entrywise with a CLT-scaled tolerance.
  Multigraph g = make_erdos_renyi(12, 40, 3);
  apply_weights(g, WeightModel::uniform(0.5, 2.0), 4);
  const Multigraph split = split_edges_uniform(g, 4);
  // Eliminate an independent set (trivially 5-DD).
  const std::vector<Vertex> f{0, 5, 9};
  const Partition p = make_partition(split, f);

  const int trials = 3000;
  DenseMatrix mean(p.nc, p.nc);
  for (int t = 0; t < trials; ++t) {
    const Multigraph h = run_walks(split, p, 1000 + static_cast<std::uint64_t>(t));
    const DenseMatrix lh = laplacian_dense(h);
    for (int i = 0; i < p.nc; ++i)
      for (int j = 0; j < p.nc; ++j) mean(i, j) += lh(i, j) / trials;
  }

  std::vector<Vertex> keep = p.c_list;
  const DenseMatrix sc = schur_complement_dense(laplacian_dense(g), keep);
  EXPECT_LT(mean.max_abs_diff(sc), 0.15);  // ~4 sigma at these weights
}

TEST(TerminalWalks, OutputEdgesAreAlphaBounded) {
  // Lemma 5.2: if every input multi-edge is alpha-bounded w.r.t. L, every
  // emitted edge is too (effective resistance triangle inequality).
  Multigraph g = make_erdos_renyi(20, 60, 7);
  apply_weights(g, WeightModel::uniform(0.2, 3.0), 8);
  const std::int64_t copies = 6;
  const Multigraph split = split_edges_uniform(g, copies);
  const double alpha = 1.0 / static_cast<double>(copies);

  const FiveDdResult fdd = five_dd_subset(split, 9);
  const Partition p = make_partition(split, fdd.f);
  const Multigraph h = run_walks(split, p, 13);

  // Resistances w.r.t. the ORIGINAL L, between the C vertices of h.
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const Vertex cu = p.c_list[static_cast<std::size_t>(h.edge_u(e))];
    const Vertex cv = p.c_list[static_cast<std::size_t>(h.edge_v(e))];
    const double resistance =
        pinv(cu, cu) + pinv(cv, cv) - 2.0 * pinv(cu, cv);
    EXPECT_LE(h.edge_weight(e) * resistance, alpha + 1e-9);
  }
}

TEST(TerminalWalks, PathEliminationComposesHarmonically) {
  // Path 0-1-2, weights w01=2, w12=3, eliminate {1}: any sampled edge must
  // be the full path with weight 1/(1/2+1/3) = 6/5.
  Multigraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  const std::vector<Vertex> f{1};
  const Partition p = make_partition(g, f);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Multigraph h = run_walks(g, p, seed);
    for (EdgeId e = 0; e < h.num_edges(); ++e) {
      EXPECT_NEAR(h.edge_weight(e), 1.2, 1e-12);
    }
  }
}

TEST(TerminalWalks, WalkLengthsShortOnFiveDdSets) {
  // Lemma 5.4: escape probability >= 4/5 per step => mean length <= 1/4
  // per walk endpoint... empirically small; max O(log m).
  const Multigraph g = make_grid2d(40, 40);
  const FiveDdResult fdd = five_dd_subset(g, 21);
  const Partition p = make_partition(g, fdd.f);
  WalkStats stats;
  (void)run_walks(g, p, 23, &stats);
  const double mean_steps =
      static_cast<double>(stats.total_steps) /
      (2.0 * static_cast<double>(stats.edges_in));
  EXPECT_LT(mean_steps, 1.0);
  EXPECT_LE(stats.max_walk_len, 64);
  EXPECT_EQ(stats.retries, 0);
}

TEST(TerminalWalks, IsolatedCVertexSurvives) {
  // A C vertex with no edges shouldn't break anything.
  Multigraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  // Vertex 3 isolated; F = {1}.
  const std::vector<Vertex> f{1};
  const Partition p = make_partition(g, f);
  const Multigraph h = run_walks(g, p, 1);
  EXPECT_EQ(h.num_vertices(), 3);
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    EXPECT_NE(h.edge_u(e), p.c_index[3]);
    EXPECT_NE(h.edge_v(e), p.c_index[3]);
  }
}

}  // namespace
}  // namespace parlap
