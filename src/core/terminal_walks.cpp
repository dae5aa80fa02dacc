#include "core/terminal_walks.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include <omp.h>

#include "parallel/alias_table.hpp"
#include "parallel/for_each.hpp"
#include "parallel/scan.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace parlap {

void build_walk_graph(const LevelGraph& g, std::span<const Vertex> f,
                      WalkGraph& wg) {
  const std::size_t nf = f.size();
  wg.off.resize(nf + 1);
  parallel_for(std::size_t{0}, nf, [&](std::size_t i) {
    wg.off[i] = static_cast<EdgeId>(g.row(static_cast<std::size_t>(
                                             g.sample_position(f[i])))
                                        .size());
  });
  wg.off[nf] = 0;
  const EdgeId vol = exclusive_scan(std::span<EdgeId>(wg.off));
  wg.nbr.resize(static_cast<std::size_t>(vol));
  wg.w.resize(static_cast<std::size_t>(vol));
  wg.prob.resize(static_cast<std::size_t>(vol));
  wg.alias.resize(static_cast<std::size_t>(vol));

  // Rows in rank order, then an alias table per row (Lemma 2.6: O(deg)
  // build, O(1) query).
  parallel_for(std::size_t{0}, nf, [&](std::size_t i) {
    const std::span<const RowEntry> row =
        g.row(static_cast<std::size_t>(g.sample_position(f[i])));
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

  const int num_threads = parallelism_allowed() ? thread_count() : 1;
  std::vector<WalkStats> local_stats(static_cast<std::size_t>(num_threads));
  // Exceptions must not cross the OpenMP region boundary; failures set
  // this flag and the check fires after the region joins.
  std::atomic<bool> retries_exhausted{false};

  struct WalkOutcome {
    Vertex terminal = kInvalidVertex;  ///< level-local id
    double inv_weight_sum = 0.0;
    int length = 0;
  };

#pragma omp parallel num_threads(num_threads)
  {
    // Counted in a thread-private local and stored once at the end: the
    // per-thread slots of local_stats are adjacent, so bumping them per
    // edge would share cache lines between threads.
    WalkStats ls;

    auto run_walk = [&](Vertex start, Rng& rng) {
      for (int attempt = 0;; ++attempt) {
        if (attempt >= opts.max_retries ||
            retries_exhausted.load(std::memory_order_relaxed)) {
          retries_exhausted.store(true, std::memory_order_relaxed);
          return WalkOutcome{};
        }
        WalkOutcome out;
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
          out.inv_weight_sum += 1.0 / walk_graph.w[lo + static_cast<std::size_t>(k)];
          x = walk_graph.nbr[lo + static_cast<std::size_t>(k)];
          ++out.length;
        }
        if (!capped) {
          out.terminal = x;
          return out;
        }
        ++ls.retries;
      }
    };

#pragma omp for schedule(dynamic, 16)
    for (std::size_t i = 0; i < f.size(); ++i) {
      const Vertex fi = f[i];
      for (const RowEntry& e :
           g.row(static_cast<std::size_t>(g.sample_position(fi)))) {
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
        ++ls.walked;
        ls.total_steps += w1.length + w2.length;
        ls.max_walk_len = std::max({ls.max_walk_len, w1.length, w2.length});
        if (w1.terminal == w2.terminal) {
          ++ls.dropped_loops;
          g.drop_edge(e.slot);
          continue;
        }
        const double inv_sum =
            1.0 / e.w + w1.inv_weight_sum + w2.inv_weight_sum;
        g.set_edge(e.slot, live[static_cast<std::size_t>(w1.terminal)],
                   live[static_cast<std::size_t>(w2.terminal)], 1.0 / inv_sum);
      }
    }
    local_stats[static_cast<std::size_t>(omp_get_thread_num())] = ls;
  }

  PARLAP_CHECK_MSG(!retries_exhausted.load(),
                   "terminal walk failed to reach C within "
                       << cap << " steps after " << opts.max_retries
                       << " retries; is V\\C 5-DD?");

  WalkStats stats;
  for (const WalkStats& ls : local_stats) stats.accumulate(ls);
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
