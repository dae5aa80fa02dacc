#include "core/terminal_walks.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "parallel/alias_table.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace parlap {

namespace {

/// F-row entries a walk block holds: walks are handed out in blocks of
/// this many entries, so a row of any length spreads over the team.
constexpr EdgeId kWalkBlock = 512;

}  // namespace

// A walk region's threads count into private WalkStats merged by
// accumulate(): integer sums and a max, equal in any merge order.
#pragma omp declare reduction(merge : WalkStats : omp_out.accumulate(omp_in)) \
    initializer(omp_priv = WalkStats{})

void build_walk_graph(const LevelGraph& g, std::span<const Vertex> f,
                      WalkGraph& wg) {
  const std::size_t nf = f.size();
  const auto f_row = [&](std::size_t i) {
    return g.row(static_cast<std::size_t>(g.sample_position(f[i])));
  };
  wg.off.resize(nf + 1);
  wg.off[0] = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    wg.off[i + 1] = wg.off[i] + static_cast<EdgeId>(f_row(i).size());
  }
  const EdgeId vol = wg.off[nf];
  wg.nbr.resize(static_cast<std::size_t>(vol));
  wg.w.resize(static_cast<std::size_t>(vol));
  wg.prob.resize(static_cast<std::size_t>(vol));
  wg.alias.resize(static_cast<std::size_t>(vol));

  // Rows in rank order, then an alias table per row (Lemma 2.6: O(deg)
  // build, O(1) query), in chunks of equal volume.
  const int chunks = fork_pays(vol) ? thread_count() : 1;
  for_each_row_chunk(std::span<const EdgeId>(wg.off), chunks,
                     [&](std::size_t i, int) {
    const std::span<const RowEntry> row = f_row(i);
    const auto lo = static_cast<std::size_t>(wg.off[i]);
    for (std::size_t k = 0; k < row.size(); ++k) {
      wg.nbr[lo + k] = g.rank(row[k].other);
      wg.w[lo + k] = row[k].w;
    }
    if (row.empty()) return;  // isolated F vertex: never visited by any walk
    build_alias(std::span<const double>(wg.w.data() + lo, row.size()),
                std::span<double>(wg.prob.data() + lo, row.size()),
                std::span<std::int32_t>(wg.alias.data() + lo, row.size()));
  });
}

WalkStats sample_schur_complement(LevelGraph& g, const WalkGraph& walk_graph,
                                  std::span<const Vertex> f,
                                  std::span<const Vertex> f_index,
                                  std::uint64_t seed, std::uint64_t level,
                                  const WalkOptions& opts) {
  const EdgeId m = g.num_edges();
  PARLAP_CHECK(walk_graph.rows() == static_cast<Vertex>(f.size()));
  PARLAP_CHECK(f_index.size() == static_cast<std::size_t>(g.num_vertices()));

  const int cap = opts.max_walk_steps > 0
                      ? opts.max_walk_steps
                      : 32 + 16 * static_cast<int>(std::ceil(std::log2(
                                      static_cast<double>(m) + 2.0)));
  const std::span<const Vertex> live = g.live();
  const std::span<const EdgeId> off(walk_graph.off);
  const EdgeId volume = walk_graph.volume();
  const EdgeId blocks = (volume + kWalkBlock - 1) / kWalkBlock;
  // Exceptions must not cross the OpenMP region boundary; failures set
  // this flag and the check fires after the region joins.
  std::atomic<bool> retries_exhausted{false};

  struct WalkOutcome {
    Vertex terminal = kInvalidVertex;  ///< level-local id
    double inv_weight_sum = 0.0;
    int length = 0;
    int retries = 0;  ///< capped attempts before this one
  };
  const auto run_walk = [&](Vertex start, Rng& rng) {
    for (int attempt = 0;; ++attempt) {
      if (attempt >= opts.max_retries ||
          retries_exhausted.load(std::memory_order_relaxed)) {
        retries_exhausted.store(true, std::memory_order_relaxed);
        return WalkOutcome{};
      }
      WalkOutcome out;
      out.retries = attempt;
      Vertex x = start;
      bool capped = false;
      while (true) {
        const Vertex fx = f_index[static_cast<std::size_t>(x)];
        if (fx == kInvalidVertex) break;  // reached a terminal
        if (out.length >= cap) {
          capped = true;
          break;
        }
        const auto lo = static_cast<std::size_t>(
            walk_graph.off[static_cast<std::size_t>(fx)]);
        const auto deg = static_cast<std::size_t>(
                             walk_graph.off[static_cast<std::size_t>(fx) + 1]) -
                         lo;
        PARLAP_DCHECK(deg > 0);
        const std::int32_t k = sample_alias(
            std::span<const double>(walk_graph.prob.data() + lo, deg),
            std::span<const std::int32_t>(walk_graph.alias.data() + lo, deg),
            rng);
        const std::size_t step = lo + static_cast<std::size_t>(k);
        out.inv_weight_sum += 1.0 / walk_graph.w[step];
        x = walk_graph.nbr[step];
        ++out.length;
      }
      if (!capped) {
        out.terminal = x;
        return out;
      }
    }
  };

  // Blocks of F-row entries, in walk-graph order: entry p of the level is
  // entry p - off[i] of F row i. Each thread counts into its private copy
  // of `stats`; the copies merge when the region joins. One combined
  // construct: its loop is set up before the team starts, so no team
  // thread allocates.
  WalkStats stats;
#pragma omp parallel for schedule(dynamic, 1) reduction(merge : stats) \
    if (fork_pays(volume))
  for (EdgeId b = 0; b < blocks; ++b) {
    const EdgeId lo = b * kWalkBlock;
    const EdgeId hi = std::min(volume, lo + kWalkBlock);
    // The rows that meet [lo, hi), from the last one starting at or
    // before lo; each walks its entries inside the block.
    auto i = static_cast<std::size_t>(
        std::upper_bound(off.begin(), off.end(), lo) - off.begin() - 1);
    for (; off[i] < hi; ++i) {
      const Vertex fi = f[i];
      const EdgeId first = std::max(lo, off[i]);
      const EdgeId last = std::min(hi, off[i + 1]);
      const std::span<const RowEntry> row =
          g.row(static_cast<std::size_t>(g.sample_position(fi)))
              .subspan(static_cast<std::size_t>(first - off[i]),
                       static_cast<std::size_t>(last - first));
      for (const RowEntry& e : row) {
        if (retries_exhausted.load(std::memory_order_relaxed)) break;
        // An F-F edge is in two F rows; it walks from its u endpoint's.
        if (e.from_u == 0 && g.selected(e.other)) continue;
        Rng rng(seed, RngTag::kTerminalWalk,
                (level << 40) ^ static_cast<std::uint64_t>(e.rank));
        const Vertex u = e.from_u != 0 ? fi : e.other;
        const Vertex v = e.from_u != 0 ? e.other : fi;
        const WalkOutcome w1 = run_walk(g.rank(u), rng);
        const WalkOutcome w2 = run_walk(g.rank(v), rng);
        if (retries_exhausted.load(std::memory_order_relaxed)) break;
        ++stats.walked;
        stats.retries += w1.retries + w2.retries;
        stats.total_steps += w1.length + w2.length;
        stats.max_walk_len =
            std::max({stats.max_walk_len, w1.length, w2.length});
        if (w1.terminal == w2.terminal) {
          ++stats.dropped_loops;
          g.drop_edge(e.slot);
          continue;
        }
        const double inv_sum =
            1.0 / e.w + w1.inv_weight_sum + w2.inv_weight_sum;
        g.set_edge(e.slot, live[static_cast<std::size_t>(w1.terminal)],
                   live[static_cast<std::size_t>(w2.terminal)], 1.0 / inv_sum);
      }
    }
  }

  PARLAP_CHECK_MSG(!retries_exhausted.load(),
                   "terminal walk failed to reach C within "
                       << cap << " steps after " << opts.max_retries
                       << " retries; is V\\C 5-DD?");

  stats.edges_in = m;
  stats.edges_out = m - stats.dropped_loops;
  return stats;
}

namespace {

/// The F list in F-position order of a whole-graph F index.
std::vector<Vertex> f_list_of(std::span<const Vertex> f_index, Vertex nf) {
  std::vector<Vertex> f(static_cast<std::size_t>(nf), kInvalidVertex);
  for (std::size_t v = 0; v < f_index.size(); ++v) {
    const Vertex i = f_index[v];
    if (i == kInvalidVertex) continue;
    PARLAP_CHECK_MSG(i >= 0 && i < nf &&
                         f[static_cast<std::size_t>(i)] == kInvalidVertex,
                     "F index " << i << " of vertex " << v
                                << " is out of range or repeated");
    f[static_cast<std::size_t>(i)] = static_cast<Vertex>(v);
  }
  PARLAP_CHECK_MSG(std::find(f.begin(), f.end(), kInvalidVertex) == f.end(),
                   "F index names fewer than " << nf << " vertices");
  return f;
}

}  // namespace

WalkGraph build_walk_graph(MultigraphView g, std::span<const Vertex> f_index,
                           Vertex nf) {
  PARLAP_CHECK(f_index.size() == static_cast<std::size_t>(g.num_vertices()));
  LevelGraph lg;
  lg.assign(g);
  const std::vector<Vertex> f = f_list_of(f_index, nf);
  (void)lg.scan(f);
  WalkGraph wg;
  build_walk_graph(lg, f, wg);
  return wg;
}

Multigraph terminal_walks(MultigraphView g, const WalkGraph& walk_graph,
                          std::span<const Vertex> f_index,
                          std::span<const Vertex> c_index, Vertex num_c,
                          std::uint64_t seed, std::uint64_t level,
                          WalkStats* stats, const WalkOptions& opts) {
  const Vertex n = g.num_vertices();
  PARLAP_CHECK(f_index.size() == static_cast<std::size_t>(n));
  PARLAP_CHECK(c_index.size() == static_cast<std::size_t>(n));
  PARLAP_CHECK(num_c >= 1);
  PARLAP_CHECK(walk_graph.off.size() >= 1);

  LevelGraph lg;
  lg.assign(g);
  const std::vector<Vertex> f = f_list_of(f_index, walk_graph.rows());
  (void)lg.scan(f);
  lg.select(f);
  const WalkStats ws = sample_schur_complement(lg, walk_graph, f, f_index,
                                               seed, level, opts);
  if (stats != nullptr) *stats = ws;

  // The level graph now holds H in g's ids; renumbering ranks the kept
  // vertices, and c_index names them in the caller's output space.
  lg.eliminate(ws.edges_in - ws.edges_out);
  const MultigraphView h = lg.renumbered();
  const std::span<const Vertex> kept = lg.live();
  const auto out_id = [&](Vertex r) {
    return c_index[static_cast<std::size_t>(kept[static_cast<std::size_t>(r)])];
  };
  Multigraph out(num_c);
  out.resize_edges(h.num_edges());
  parallel_for(EdgeId{0}, h.num_edges(), [&](EdgeId e) {
    out.set_edge(e, out_id(h.edge_u(e)), out_id(h.edge_v(e)),
                 h.edge_weight(e));
  });
  return out;
}

}  // namespace parlap
