// TerminalWalks tests (Lemmas 5.1, 5.2, 5.4): unbiasedness against the
// exact dense Schur complement, alpha-boundedness preservation, the
// never-more-edges invariant, weight composition, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "core/alpha_bound.hpp"
#include "core/five_dd.hpp"
#include "core/terminal_walks.hpp"
#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "parallel/alias_table.hpp"

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

TEST(TerminalWalks, EliminatedStarStaysConnected) {
  // Path 0-1-2, one copy per edge, F = {1}: each edge walks from 1 to a
  // uniform neighbour, so a draw drops both edges with probability 1/4
  // and would split {0, 2}. The guard redraws such a star until its
  // terminals connect, and a star that connects first time keeps its
  // draw.
  Multigraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const std::vector<Vertex> f{1};
  const Partition p = make_partition(g, f);
  std::int64_t redrawn = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    WalkStats stats;
    const Multigraph h = run_walks(g, p, seed, &stats);
    EXPECT_GE(h.num_edges(), 1) << "seed " << seed;
    EXPECT_EQ(stats.edges_out, h.num_edges()) << "seed " << seed;
    EXPECT_EQ(stats.edges_out + stats.dropped_loops, stats.edges_in);
    EXPECT_EQ(stats.walked, 2);
    redrawn += stats.resampled > 0 ? 1 : 0;
  }
  EXPECT_GT(redrawn, 0);
  EXPECT_LT(redrawn, 32);
}

TEST(TerminalWalks, TombstoneLeavesEveryOtherDrawAlone) {
  // A walk's randomness is keyed by its edge's slot in the level graph,
  // and a slot stays put until the array is compacted, so tombstoning a
  // C-C edge (as an earlier level's walk does) changes no other edge's
  // draw. Two copies of a level graph, one with its first C-C edge
  // tombstoned, sample the same F (their walk caps, set by the live edge
  // count, are equal): every other slot must receive the same edge in
  // both.
  const Multigraph g = split_edges_uniform(make_grid2d(20, 20), 4);
  const std::vector<Vertex> f = five_dd_subset(g, 3).f;
  std::vector<Vertex> f_index(static_cast<std::size_t>(g.num_vertices()),
                              kInvalidVertex);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f_index[static_cast<std::size_t>(f[i])] = static_cast<Vertex>(i);
  }
  const auto in_f = [&](Vertex v) {
    return f_index[static_cast<std::size_t>(v)] != kInvalidVertex;
  };
  EdgeId cc = 0;
  while (in_f(g.edge_u(cc)) || in_f(g.edge_v(cc))) ++cc;
  EdgeId walked_after = 0;
  for (EdgeId e = cc + 1; e < g.num_edges(); ++e) {
    walked_after += in_f(g.edge_u(e)) || in_f(g.edge_v(e)) ? 1 : 0;
  }
  ASSERT_GT(walked_after, 100);

  struct Sampled {
    std::vector<std::tuple<Vertex, Vertex, Weight>> edges;  // renumbered
    WalkStats stats;
  };
  const auto sample = [&](bool tombstone) {
    LevelGraph lg;
    lg.assign(g);
    if (tombstone) {
      lg.drop_edge(cc);
      lg.eliminate(1);
    }
    (void)lg.scan(f);
    lg.select(f);
    WalkGraph wg;
    build_walk_graph(lg, f, wg);
    WalkScratch scratch;
    Sampled out;
    out.stats = sample_schur_complement(lg, wg, f, f_index, 11, 0, {}, scratch);
    lg.eliminate(out.stats.edges_in - out.stats.edges_out);
    const MultigraphView h = lg.renumbered();
    for (EdgeId e = 0; e < h.num_edges(); ++e) {
      out.edges.emplace_back(h.edge_u(e), h.edge_v(e), h.edge_weight(e));
    }
    return out;
  };
  const Sampled whole = sample(false);
  const Sampled dropped = sample(true);
  EXPECT_EQ(dropped.stats.walked, whole.stats.walked);
  EXPECT_EQ(dropped.stats.dropped_loops, whole.stats.dropped_loops);
  EXPECT_EQ(dropped.stats.total_steps, whole.stats.total_steps);
  EXPECT_EQ(dropped.stats.resampled, whole.stats.resampled);

  // Both arrays compact in slot order, so the tombstoned copy must equal
  // the other with the C-C edge (renumbered: F leaves the ids) removed.
  const auto renumbered = [&](Vertex v) {
    return v - static_cast<Vertex>(std::lower_bound(f.begin(), f.end(), v) -
                                   f.begin());
  };
  std::vector<std::tuple<Vertex, Vertex, Weight>> want = whole.edges;
  const auto at = std::find(
      want.begin(), want.end(),
      std::make_tuple(renumbered(g.edge_u(cc)), renumbered(g.edge_v(cc)),
                      g.edge_weight(cc)));
  ASSERT_NE(at, want.end());
  want.erase(at);
  EXPECT_TRUE(dropped.edges == want);
}

// A per-edge reference for the first draw of one level's walks, on a
// level-0 graph (level-local ids are g's): every F-incident edge, in slot
// order, walks from its u end and then its v end on the stream keyed
// (level << 40) ^ slot. At an F vertex a walk steps along one of its
// edges, listed in slot order, drawn by sample_alias from their weights'
// alias table; it ends at the first terminal, and a walk that has taken
// `cap` steps without reaching one restarts from its start on the same
// stream. Each slot ends as the sampled edge or a tombstone (n, n, 0).
struct ReferenceDraw {
  std::vector<std::tuple<Vertex, Vertex, Weight>> slots;
  WalkStats stats;
};

ReferenceDraw reference_walks(const Multigraph& g,
                              std::span<const Vertex> f_index,
                              std::uint64_t seed, std::uint64_t level,
                              int cap, int max_retries) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto in_f = [&](Vertex v) {
    return f_index[static_cast<std::size_t>(v)] != kInvalidVertex;
  };
  std::vector<std::vector<EdgeId>> edges_of(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const Vertex x : {g.edge_u(e), g.edge_v(e)}) {
      if (in_f(x)) edges_of[static_cast<std::size_t>(x)].push_back(e);
    }
  }
  std::vector<std::vector<double>> prob(n);
  std::vector<std::vector<std::int32_t>> alias(n);
  for (std::size_t x = 0; x < n; ++x) {
    if (edges_of[x].empty()) continue;
    std::vector<double> w;
    for (const EdgeId e : edges_of[x]) w.push_back(g.edge_weight(e));
    prob[x].resize(w.size());
    alias[x].resize(w.size());
    build_alias(w, prob[x], alias[x]);
  }

  struct Walk {
    Vertex end;
    double inv_weight_sum = 0.0;
    int length = 0;
    int retries = 0;
  };
  const auto walk = [&](Vertex start, Rng& rng) {
    for (int attempt = 0; attempt < max_retries; ++attempt) {
      Walk w{start, 0.0, 0, attempt};
      while (in_f(w.end) && w.length < cap) {
        const auto x = static_cast<std::size_t>(w.end);
        const EdgeId e = edges_of[x][static_cast<std::size_t>(
            sample_alias(prob[x], alias[x], rng))];
        w.inv_weight_sum += 1.0 / g.edge_weight(e);
        w.end = g.edge_u(e) == w.end ? g.edge_v(e) : g.edge_u(e);
        ++w.length;
      }
      if (!in_f(w.end)) return w;
    }
    ADD_FAILURE() << "walk from " << start << " ran out of retries";
    return Walk{start};
  };

  ReferenceDraw out;
  const auto tombstone = static_cast<Vertex>(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Vertex u = g.edge_u(e);
    const Vertex v = g.edge_v(e);
    out.slots.emplace_back(u, v, g.edge_weight(e));
    if (!in_f(u) && !in_f(v)) continue;
    Rng rng(seed, RngTag::kTerminalWalk,
            (level << 40) ^ static_cast<std::uint64_t>(e));
    const Walk w1 = walk(u, rng);
    const Walk w2 = walk(v, rng);
    WalkStats& st = out.stats;
    ++st.walked;
    st.retries += w1.retries + w2.retries;
    st.total_steps += w1.length + w2.length;
    st.max_walk_len = std::max({st.max_walk_len, w1.length, w2.length});
    if (w1.end == w2.end) {
      ++st.dropped_loops;
      out.slots.back() = {tombstone, tombstone, 0.0};
    } else {
      out.slots.back() = {w1.end, w2.end,
                          1.0 / (1.0 / g.edge_weight(e) + w1.inv_weight_sum +
                                 w2.inv_weight_sum)};
    }
  }
  return out;
}

TEST(TerminalWalks, MatchesPerEdgeReference) {
  // A 5-DD F of a random graph keeps F-F edges, so some walks step
  // inside F before they escape. The sampler walks in blocks, taking
  // each entry's first step from a batched Philox block and going on at
  // block 1 only when it must; slot by slot and counter by counter it
  // must equal the per-edge reference. A cap of one step makes every walk
  // that steps onto F retry, on the stream it resumed.
  const Multigraph g =
      split_edges_uniform(make_erdos_renyi(600, 4800, 5), 3);
  const std::vector<Vertex> f = five_dd_subset(g, 7).f;
  std::vector<Vertex> f_index(static_cast<std::size_t>(g.num_vertices()),
                              kInvalidVertex);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f_index[static_cast<std::size_t>(f[i])] = static_cast<Vertex>(i);
  }
  EdgeId ff_edges = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ff_edges += f_index[static_cast<std::size_t>(g.edge_u(e))] !=
                        kInvalidVertex &&
                    f_index[static_cast<std::size_t>(g.edge_v(e))] !=
                        kInvalidVertex
                ? 1
                : 0;
  }
  ASSERT_GT(ff_edges, 0);

  constexpr std::uint64_t kSeed = 19;
  constexpr std::uint64_t kLevel = 3;
  for (const int cap : {40, 1}) {
    SCOPED_TRACE(cap);
    WalkOptions opts;
    opts.max_walk_steps = cap;
    // The level graph walks in h's own edge arrays and gives them back.
    Multigraph h = g;
    LevelGraph lg;
    lg.adopt(h);
    (void)lg.scan(f);
    lg.select(f);
    WalkGraph wg;
    build_walk_graph(lg, f, wg);
    WalkScratch scratch;
    const WalkStats got = sample_schur_complement(lg, wg, f, f_index, kSeed,
                                                  kLevel, opts, scratch);
    lg.give_back(h);
    ASSERT_EQ(got.resampled, 0) << "a redrawn component has no reference";

    const ReferenceDraw want = reference_walks(g, f_index, kSeed, kLevel,
                                               cap, opts.max_retries);
    ASSERT_EQ(h.num_edges(), g.num_edges());
    for (EdgeId e = 0; e < h.num_edges(); ++e) {
      ASSERT_EQ(std::make_tuple(h.edge_u(e), h.edge_v(e), h.edge_weight(e)),
                want.slots[static_cast<std::size_t>(e)])
          << "slot " << e;
    }
    EXPECT_EQ(got.walked, want.stats.walked);
    EXPECT_EQ(got.dropped_loops, want.stats.dropped_loops);
    EXPECT_EQ(got.total_steps, want.stats.total_steps);
    EXPECT_EQ(got.max_walk_len, want.stats.max_walk_len);
    EXPECT_EQ(got.retries, want.stats.retries);
    if (cap == 1) {
      EXPECT_GT(got.retries, 0);
    } else {
      EXPECT_GE(got.max_walk_len, 2);
      EXPECT_EQ(got.retries, 0);
    }
  }
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
