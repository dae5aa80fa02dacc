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

void build_walk_graph_into(MultigraphView g, std::span<const Vertex> f_index,
                           Vertex nf, WalkGraph& wg,
                           WalkBuildScratch& scratch) {
  const EdgeId m = g.num_edges();
  wg.off.assign(static_cast<std::size_t>(nf) + 1, 0);
  if (nf == 0) {
    wg.nbr.clear();
    wg.w.clear();
    wg.prob.clear();
    wg.alias.clear();
    return;
  }

  // Stable parallel counting sort of F-incident edge endpoints, chunked so
  // placement is deterministic (same pattern as CsrGraph).
  const int chunks = std::max(
      1, std::min<int>(thread_count(),
                       static_cast<int>((std::int64_t{1} << 24) /
                                        std::max<Vertex>(nf, 1))));
  const EdgeId chunk_len = (m + chunks - 1) / chunks;
  const auto nfz = static_cast<std::size_t>(nf);
  scratch.hist.assign(static_cast<std::size_t>(chunks) * nfz, 0);
  EdgeId* hist = scratch.hist.data();

#pragma omp parallel for schedule(static) num_threads(chunks)
  for (int c = 0; c < chunks; ++c) {
    EdgeId* local = hist + static_cast<std::size_t>(c) * nfz;
    const EdgeId lo = c * chunk_len;
    const EdgeId hi = std::min(m, lo + chunk_len);
    for (EdgeId e = lo; e < hi; ++e) {
      const Vertex fu = f_index[static_cast<std::size_t>(g.edge_u(e))];
      const Vertex fv = f_index[static_cast<std::size_t>(g.edge_v(e))];
      if (fu != kInvalidVertex) ++local[static_cast<std::size_t>(fu)];
      if (fv != kInvalidVertex) ++local[static_cast<std::size_t>(fv)];
    }
  }

  parallel_for(Vertex{0}, nf, [&](Vertex i) {
    EdgeId total = 0;
    for (int c = 0; c < chunks; ++c)
      total += hist[static_cast<std::size_t>(c) * nfz + static_cast<std::size_t>(i)];
    wg.off[static_cast<std::size_t>(i)] = total;
  });
  wg.off[nfz] = 0;
  exclusive_scan(std::span<EdgeId>(wg.off));
  const EdgeId vol = wg.off[nfz];
  wg.nbr.resize(static_cast<std::size_t>(vol));
  wg.w.resize(static_cast<std::size_t>(vol));

  scratch.base.resize(static_cast<std::size_t>(chunks) * nfz);
  EdgeId* base = scratch.base.data();
  parallel_for(Vertex{0}, nf, [&](Vertex i) {
    EdgeId run = wg.off[static_cast<std::size_t>(i)];
    for (int c = 0; c < chunks; ++c) {
      base[static_cast<std::size_t>(c) * nfz + static_cast<std::size_t>(i)] = run;
      run += hist[static_cast<std::size_t>(c) * nfz + static_cast<std::size_t>(i)];
    }
  });

#pragma omp parallel for schedule(static) num_threads(chunks)
  for (int c = 0; c < chunks; ++c) {
    EdgeId* local = base + static_cast<std::size_t>(c) * nfz;
    const EdgeId lo = c * chunk_len;
    const EdgeId hi = std::min(m, lo + chunk_len);
    for (EdgeId e = lo; e < hi; ++e) {
      const Vertex u = g.edge_u(e);
      const Vertex v = g.edge_v(e);
      const Weight w = g.edge_weight(e);
      const Vertex fu = f_index[static_cast<std::size_t>(u)];
      const Vertex fv = f_index[static_cast<std::size_t>(v)];
      if (fu != kInvalidVertex) {
        const auto p = static_cast<std::size_t>(local[static_cast<std::size_t>(fu)]++);
        wg.nbr[p] = v;
        wg.w[p] = w;
      }
      if (fv != kInvalidVertex) {
        const auto p = static_cast<std::size_t>(local[static_cast<std::size_t>(fv)]++);
        wg.nbr[p] = u;
        wg.w[p] = w;
      }
    }
  }

  // Alias tables per F row (Lemma 2.6: O(deg) build, O(1) query).
  wg.prob.resize(static_cast<std::size_t>(vol));
  wg.alias.resize(static_cast<std::size_t>(vol));
  parallel_for(Vertex{0}, nf, [&](Vertex i) {
    const auto lo = static_cast<std::size_t>(wg.off[static_cast<std::size_t>(i)]);
    const auto deg = static_cast<std::size_t>(wg.off[static_cast<std::size_t>(i) + 1]) - lo;
    if (deg == 0) return;  // isolated F vertex: never visited by any walk
    build_alias(std::span<const double>(wg.w.data() + lo, deg),
                std::span<double>(wg.prob.data() + lo, deg),
                std::span<std::int32_t>(wg.alias.data() + lo, deg));
  });
}

WalkGraph build_walk_graph(MultigraphView g,
                           std::span<const Vertex> f_index, Vertex nf) {
  WalkGraph wg;
  WalkBuildScratch scratch;
  build_walk_graph_into(g, f_index, nf, wg, scratch);
  return wg;
}

void sample_schur_complement(MultigraphView g, const WalkGraph& walk_graph,
                             std::span<const Vertex> f_index,
                             std::span<const Vertex> c_index, Vertex num_c,
                             std::uint64_t seed, std::uint64_t level,
                             WalkStats* stats, const WalkOptions& opts,
                             TerminalWalkScratch& scratch,
                             std::vector<Vertex>& out_u,
                             std::vector<Vertex>& out_v,
                             std::vector<Weight>& out_w) {
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  PARLAP_CHECK(f_index.size() == static_cast<std::size_t>(n));
  PARLAP_CHECK(c_index.size() == static_cast<std::size_t>(n));
  PARLAP_CHECK(num_c >= 1);
  PARLAP_CHECK(walk_graph.off.size() >= 1);

  const int cap = opts.max_walk_steps > 0
                      ? opts.max_walk_steps
                      : 32 + 16 * static_cast<int>(std::ceil(std::log2(
                                      static_cast<double>(m) + 2.0)));

  // Per-edge outputs, compacted afterwards in input order (deterministic).
  scratch.out_u.resize(static_cast<std::size_t>(m));
  scratch.out_v.resize(static_cast<std::size_t>(m));
  scratch.out_w.resize(static_cast<std::size_t>(m));
  scratch.keep.assign(static_cast<std::size_t>(m) + 1, 0);
  std::span<Vertex> walk_u(scratch.out_u.data(), static_cast<std::size_t>(m));
  std::span<Vertex> walk_v(scratch.out_v.data(), static_cast<std::size_t>(m));
  std::span<Weight> walk_w(scratch.out_w.data(), static_cast<std::size_t>(m));
  std::span<EdgeId> keep(scratch.keep.data(), static_cast<std::size_t>(m) + 1);

  const int num_threads = thread_count();
  std::vector<WalkStats> local_stats(static_cast<std::size_t>(num_threads));
  // Exceptions must not cross the OpenMP region boundary; failures set
  // this flag and the check fires after the region joins.
  std::atomic<bool> retries_exhausted{false};

  struct WalkOutcome {
    Vertex terminal = kInvalidVertex;
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
          out.terminal = c_index[static_cast<std::size_t>(x)];
          return out;
        }
        ++ls.retries;
      }
    };

#pragma omp for schedule(dynamic, 512)
    for (EdgeId e = 0; e < m; ++e) {
      if (retries_exhausted.load(std::memory_order_relaxed)) continue;
      const Vertex u = g.edge_u(e);
      const Vertex v = g.edge_v(e);
      const Vertex cu = c_index[static_cast<std::size_t>(u)];
      const Vertex cv = c_index[static_cast<std::size_t>(v)];
      // Fast path: both endpoints terminal — the walk is the edge itself.
      if (cu != kInvalidVertex && cv != kInvalidVertex) {
        walk_u[static_cast<std::size_t>(e)] = cu;
        walk_v[static_cast<std::size_t>(e)] = cv;
        walk_w[static_cast<std::size_t>(e)] = g.edge_weight(e);
        keep[static_cast<std::size_t>(e)] = 1;
        continue;
      }
      Rng rng(seed, RngTag::kTerminalWalk,
              (level << 40) ^ static_cast<std::uint64_t>(e));
      const WalkOutcome w1 = run_walk(u, rng);
      const WalkOutcome w2 = run_walk(v, rng);
      if (retries_exhausted.load(std::memory_order_relaxed)) continue;
      ls.total_steps += w1.length + w2.length;
      ls.max_walk_len = std::max({ls.max_walk_len, w1.length, w2.length});
      if (w1.terminal == w2.terminal) {
        ++ls.dropped_loops;
        continue;
      }
      const double inv_sum =
          1.0 / g.edge_weight(e) + w1.inv_weight_sum + w2.inv_weight_sum;
      walk_u[static_cast<std::size_t>(e)] = w1.terminal;
      walk_v[static_cast<std::size_t>(e)] = w2.terminal;
      walk_w[static_cast<std::size_t>(e)] = 1.0 / inv_sum;
      keep[static_cast<std::size_t>(e)] = 1;
    }
    local_stats[static_cast<std::size_t>(omp_get_thread_num())] = ls;
  }

  PARLAP_CHECK_MSG(!retries_exhausted.load(),
                   "terminal walk failed to reach C within "
                       << cap << " steps after " << opts.max_retries
                       << " retries; is V\\C 5-DD?");

  // Compact kept edges by prefix scan over the keep flags.
  const EdgeId m_out = exclusive_scan(keep);
  out_u.resize(static_cast<std::size_t>(m_out));
  out_v.resize(static_cast<std::size_t>(m_out));
  out_w.resize(static_cast<std::size_t>(m_out));
  parallel_for(EdgeId{0}, m, [&](EdgeId e) {
    const auto i = static_cast<std::size_t>(e);
    if (keep[i + 1] == keep[i]) return;
    const auto slot = static_cast<std::size_t>(keep[i]);
    out_u[slot] = walk_u[i];
    out_v[slot] = walk_v[i];
    out_w[slot] = walk_w[i];
  });

  if (stats != nullptr) {
    *stats = WalkStats{};
    for (const WalkStats& ls : local_stats) stats->accumulate(ls);
    stats->edges_in = m;
    stats->edges_out = m_out;
  }
}

Multigraph terminal_walks(MultigraphView g, const WalkGraph& walk_graph,
                          std::span<const Vertex> f_index,
                          std::span<const Vertex> c_index, Vertex num_c,
                          std::uint64_t seed, std::uint64_t level,
                          WalkStats* stats, const WalkOptions& opts) {
  TerminalWalkScratch scratch;
  std::vector<Vertex> out_u;
  std::vector<Vertex> out_v;
  std::vector<Weight> out_w;
  sample_schur_complement(g, walk_graph, f_index, c_index, num_c, seed,
                          level, stats, opts, scratch, out_u, out_v, out_w);
  return Multigraph::adopt(num_c, std::move(out_u), std::move(out_v),
                           std::move(out_w));
}

}  // namespace parlap
