#include "core/approx_schur.hpp"

#include <algorithm>
#include <cmath>

#include "core/alpha_bound.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace parlap {

namespace {

std::uint64_t schur_level_seed(std::uint64_t seed, int level) {
  return splitmix64(seed ^ splitmix64(0x534348524Cull +
                                      static_cast<std::uint64_t>(level)));
}

}  // namespace

ApproxSchurResult approx_schur(const Multigraph& g,
                               std::span<const Vertex> c_set,
                               std::uint64_t seed,
                               const ApproxSchurOptions& opts) {
  const Vertex n = g.num_vertices();
  const auto num_c = static_cast<Vertex>(c_set.size());
  PARLAP_CHECK_MSG(num_c >= 1, "ApproxSchur needs a non-empty terminal set");
  PARLAP_CHECK_MSG(num_c < n, "terminal set must be a proper subset of V");

  // Relabel so terminals occupy ids [0, |C|) and non-terminals follow in
  // ascending order; ascending-rank relabelling at every level then keeps
  // terminal ids fixed, so U_k is always the suffix [|C|, n_k).
  std::vector<Vertex> new_id(static_cast<std::size_t>(n), kInvalidVertex);
  for (std::size_t i = 0; i < c_set.size(); ++i) {
    const Vertex v = c_set[i];
    PARLAP_CHECK(v >= 0 && v < n);
    PARLAP_CHECK_MSG(new_id[static_cast<std::size_t>(v)] == kInvalidVertex,
                     "duplicate terminal " << v);
    new_id[static_cast<std::size_t>(v)] = static_cast<Vertex>(i);
  }
  {
    Vertex next = num_c;
    for (Vertex v = 0; v < n; ++v) {
      if (new_id[static_cast<std::size_t>(v)] == kInvalidVertex) {
        new_id[static_cast<std::size_t>(v)] = next++;
      }
    }
  }
  Multigraph cur(n);
  cur.resize_edges(g.num_edges());
  parallel_for(EdgeId{0}, g.num_edges(), [&](EdgeId e) {
    cur.set_edge(e, new_id[static_cast<std::size_t>(g.edge_u(e))],
                 new_id[static_cast<std::size_t>(g.edge_v(e))],
                 g.edge_weight(e));
  });

  // One in-place level graph for all levels (core/level_graph.hpp).
  LevelGraph lg;
  lg.adopt(cur);
  FiveDdScratch five_dd;
  WalkGraph wg;
  std::vector<Vertex> f_index;
  ApproxSchurResult result;
  while (lg.num_vertices() > num_c) {
    PARLAP_CHECK_MSG(result.levels < opts.max_levels,
                     "ApproxSchur exceeded max_levels");
    const std::uint64_t lseed = schur_level_seed(seed, result.levels);

    // U_k = non-terminals: the live vertices after the num_c terminals
    // (F never holds a terminal, so they stay first). Find a 5-DD subset
    // of G[U_k].
    const FiveDdResult fdd = five_dd_subset(
        lg, lg.live().subspan(static_cast<std::size_t>(num_c)),
        FiveDdDegree::kWithinCandidates, lseed, opts.five_dd, five_dd);
    PARLAP_CHECK(!fdd.f.empty());

    f_index.assign(static_cast<std::size_t>(lg.num_vertices()), kInvalidVertex);
    for (std::size_t i = 0; i < fdd.f.size(); ++i) {
      f_index[static_cast<std::size_t>(lg.rank(fdd.f[i]))] =
          static_cast<Vertex>(i);
    }
    build_walk_graph(lg, fdd.f, wg);
    const WalkStats ws = sample_schur_complement(
        lg, wg, fdd.f, f_index, seed,
        static_cast<std::uint64_t>(result.levels), opts.walks);
    lg.eliminate(ws.edges_in - ws.edges_out);
    result.walk_stats.push_back(ws);
    ++result.levels;
  }
  // The survivors are the terminals, whose ranks are their ids [0, |C|).
  (void)lg.renumbered();
  lg.give_back(cur);
  std::vector<Vertex> u;
  std::vector<Vertex> v;
  std::vector<Weight> w;
  cur.swap_edge_arrays(u, v, w);
  result.schur = Multigraph::adopt(num_c, std::move(u), std::move(v),
                                   std::move(w));
  return result;
}

ApproxSchurResult approx_schur_simple(const Multigraph& g,
                                      std::span<const Vertex> c_set,
                                      double eps, std::uint64_t seed,
                                      double scale,
                                      const ApproxSchurOptions& opts) {
  PARLAP_CHECK(eps > 0.0 && eps < 1.0);
  const double log_n = std::ceil(
      std::log2(static_cast<double>(std::max(g.num_vertices(), Vertex{2}))));
  const auto copies = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(scale * log_n * log_n / (eps * eps))));
  const Multigraph split = split_edges_uniform(g, copies);
  return approx_schur(split, c_set, seed, opts);
}

}  // namespace parlap
