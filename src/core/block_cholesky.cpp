#include "core/block_cholesky.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "parallel/for_each.hpp"
#include "parallel/scan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace parlap {

namespace {

/// Independent per-level seed stream.
std::uint64_t level_seed(std::uint64_t seed, int level) {
  return splitmix64(seed ^ splitmix64(0x4C45564Cull + static_cast<std::uint64_t>(level)));
}

/// Builds one level's staging storage from the F-row adjacency. The walk
/// graph rows list every multi-edge incident to F (targets in level-local
/// ids), so Y (= F-F), L_FC and L_CF all derive from it without touching
/// C-C edges. The parallel copies the multigraph keeps for sampling
/// (Lemma 3.2 splitting, walks that land on the same pair) are summed as
/// each row is split: ff and fc hold one entry per (row, target), in
/// first-occurrence order, each the sum of its copies in walk-graph row
/// order. The stored blocks are thus the multigraph's Laplacian blocks up
/// to rounding, and identical under any thread count. fc columns and cf
/// rows name C vertices by input id (`live` maps level-local ids to
/// them); finalize() turns those into slots. `lvl` is arena-owned staging
/// (f_list/n/nf/nc already set by the caller); its buffers are recycled
/// across levels and builds, and the slot and counting-sort scratch come
/// from the arena, sized by the level.
void extract_level(const WalkGraph& wg, std::span<const double> f_degree,
                   std::span<const Vertex> f_index,
                   std::span<const Vertex> live, ChainBuildArena& arena,
                   EliminationLevel& lvl) {
  const auto nfz = static_cast<std::size_t>(lvl.nf);
  const auto nz = static_cast<std::size_t>(lvl.n);
  lvl.inv_x.resize(nfz);
  lvl.y_diag.resize(nfz);

  // Rows are split in contiguous chunks of equal walk-graph volume (one
  // below the fork cutoff). Chunk c owns slot[c*n, (c+1)*n): slot[t] is
  // where target t's entry of the row being split sits. A slot is trusted
  // only if it lies in the current row's range and that entry names t, so
  // stale slots from other rows, levels or builds never need clearing.
  // A forked pass takes one chunk per thread, with at most 2^24 slots
  // of scratch in all.
  const std::span<const EdgeId> wg_off(wg.off);
  const int row_chunks =
      fork_pays(wg.volume())
          ? static_cast<int>(std::clamp<std::int64_t>(
                (std::int64_t{1} << 24) / std::max<std::int64_t>(lvl.n, 1), 1,
                thread_count()))
          : 1;
  arena.extract_slot.resize(static_cast<std::size_t>(row_chunks) * nz);
  const auto for_each_row = [&](auto&& row) {
    for_each_row_chunk(wg_off, row_chunks, [&](std::size_t i, int c) {
      row(i, arena.extract_slot.data() + static_cast<std::size_t>(c) * nz);
    });
  };

  // Count each row's distinct F and C targets; counts are written straight
  // into the level's offset arrays and scanned in place. Here a slot holds
  // the walk-graph position of the target's first copy in the row.
  lvl.ff.off.assign(nfz + 1, 0);
  lvl.fc.off.assign(nfz + 1, 0);
  for_each_row([&](std::size_t i, EdgeId* slot) {
    const EdgeId lo = wg.off[i];
    const EdgeId hi = wg.off[i + 1];
    EdgeId nff = 0;
    EdgeId nfc = 0;
    for (EdgeId p = lo; p < hi; ++p) {
      const Vertex t = wg.nbr[static_cast<std::size_t>(p)];
      const EdgeId s = slot[static_cast<std::size_t>(t)];
      if (s >= lo && s < p && wg.nbr[static_cast<std::size_t>(s)] == t) continue;
      slot[static_cast<std::size_t>(t)] = p;
      if (f_index[static_cast<std::size_t>(t)] != kInvalidVertex) {
        ++nff;
      } else {
        ++nfc;
      }
    }
    lvl.ff.off[i] = nff;
    lvl.fc.off[i] = nfc;
  });
  const EdgeId ff_total = exclusive_scan(std::span<EdgeId>(lvl.ff.off));
  const EdgeId fc_total = exclusive_scan(std::span<EdgeId>(lvl.fc.off));
  lvl.ff.nbr.resize(static_cast<std::size_t>(ff_total));
  lvl.ff.w.resize(static_cast<std::size_t>(ff_total));
  lvl.fc.nbr.resize(static_cast<std::size_t>(fc_total));
  lvl.fc.w.resize(static_cast<std::size_t>(fc_total));

  // Fill: a slot now holds the target's position in ff or fc (fc columns
  // are level-local ids until the transpose below). The Y diagonal
  // (induced F degree) sums every F copy in row order.
  const auto add = [](EliminationLevel::SubCsr& blk, EdgeId lo, EdgeId& end,
                      EdgeId& s, Vertex col, Weight w) {
    if (s >= lo && s < end && blk.nbr[static_cast<std::size_t>(s)] == col) {
      blk.w[static_cast<std::size_t>(s)] += w;
      return;
    }
    s = end++;
    blk.nbr[static_cast<std::size_t>(s)] = col;
    blk.w[static_cast<std::size_t>(s)] = w;
  };
  for_each_row([&](std::size_t i, EdgeId* slot) {
    const EdgeId ff_lo = lvl.ff.off[i];
    const EdgeId fc_lo = lvl.fc.off[i];
    EdgeId pf = ff_lo;
    EdgeId pc = fc_lo;
    double induced = 0.0;
    for (EdgeId p = wg.off[i]; p < wg.off[i + 1]; ++p) {
      const Vertex t = wg.nbr[static_cast<std::size_t>(p)];
      const auto tz = static_cast<std::size_t>(t);
      const Weight w = wg.w[static_cast<std::size_t>(p)];
      const Vertex ft = f_index[tz];
      if (ft != kInvalidVertex) {
        add(lvl.ff, ff_lo, pf, slot[tz], ft, w);
        induced += w;
      } else {
        add(lvl.fc, fc_lo, pc, slot[tz], t, w);
      }
    }
    const double x = f_degree[i] - induced;
    lvl.y_diag[i] = induced;
    // X_ff >= (4/5) deg(f) > 0 for non-isolated f by 5-DD; isolated
    // vertices get the pseudo-inverse convention 1/0 -> 0.
    lvl.inv_x[i] = x > 0.0 ? 1.0 / x : 0.0;
  });

  // L_CF = transpose of fc: one serial stable counting sort by C column
  // (count, scan, scatter in fc order), keeping only the C rows that have
  // an entry; the scatter also turns fc's columns into input ids.
  // cursor[t] is C column t's count, then its next cf slot.
  const std::size_t entries = lvl.fc.nbr.size();
  arena.extract_hist.assign(nz, 0);
  EdgeId* cursor = arena.extract_hist.data();
  for (std::size_t p = 0; p < entries; ++p) {
    ++cursor[static_cast<std::size_t>(lvl.fc.nbr[p])];
  }
  lvl.cf.off.clear();
  lvl.cf_rows.clear();
  EdgeId run = 0;
  for (std::size_t t = 0; t < nz; ++t) {
    const EdgeId count = cursor[t];
    if (count == 0) continue;
    cursor[t] = run;
    lvl.cf.off.push_back(run);
    lvl.cf_rows.push_back(live[t]);
    run += count;
  }
  lvl.cf.off.push_back(run);
  lvl.cf.nbr.resize(static_cast<std::size_t>(run));
  lvl.cf.w.resize(static_cast<std::size_t>(run));
  for (std::size_t i = 0; i < nfz; ++i) {
    for (EdgeId p = lvl.fc.off[i]; p < lvl.fc.off[i + 1]; ++p) {
      const auto pz = static_cast<std::size_t>(p);
      const auto j = static_cast<std::size_t>(lvl.fc.nbr[pz]);
      const auto slot = static_cast<std::size_t>(cursor[j]++);
      lvl.cf.nbr[slot] = static_cast<Vertex>(i);
      lvl.cf.w[slot] = lvl.fc.w[pz];
      lvl.fc.nbr[pz] = live[j];
    }
  }
}

}  // namespace

BlockCholeskyChain BlockCholeskyChain::build(MultigraphView g,
                                             std::uint64_t seed,
                                             const BlockCholeskyOptions& opts) {
  const auto arena = ChainBuildArena::pool().acquire();
  return build_impl(g, seed, opts, *arena, nullptr);
}

BlockCholeskyChain BlockCholeskyChain::build(Multigraph&& g,
                                             std::uint64_t seed,
                                             const BlockCholeskyOptions& opts) {
  Multigraph owned = std::move(g);
  const auto arena = ChainBuildArena::pool().acquire();
  return build_impl(owned, seed, opts, *arena, &owned);
}

BlockCholeskyChain BlockCholeskyChain::build(MultigraphView g,
                                             std::uint64_t seed,
                                             const BlockCholeskyOptions& opts,
                                             ChainBuildArena& arena) {
  return build_impl(g, seed, opts, arena, nullptr);
}

BlockCholeskyChain BlockCholeskyChain::build_impl(
    MultigraphView g, std::uint64_t seed, const BlockCholeskyOptions& opts,
    ChainBuildArena& arena, Multigraph* consumed) {
  PARLAP_CHECK(g.num_vertices() >= 1);
  PARLAP_TRACE_SPAN_N(build_span, "build.chain", "build");
  build_span.arg("n", static_cast<double>(g.num_vertices()));
  build_span.arg("m", static_cast<double>(g.num_edges()));
  const WallTimer build_timer;
  {
    PARLAP_TRACE_SPAN("build.arena_recycle", "build");
    arena.begin_build();
  }
  BlockCholeskyChain chain;
  std::uint64_t build_id = 0;
  {
    static std::atomic<std::uint64_t> next_build_id{0};
    build_id = ++next_build_id;
  }
  const Vertex n0 = g.num_vertices();

  // Every G^(k) is the arena's one in-place level graph: a copy of the
  // caller's edges, or the consumed graph's own arrays swapped in.
  // Per-level outputs are staged in the arena's recycled EliminationLevel
  // buffers and packed into the immutable ApplyChain after the loop.
  LevelGraph& lg = arena.graph;
  if (consumed != nullptr) {
    lg.adopt(*consumed);
  } else {
    lg.assign(g);
  }
  arena.slots.resize(static_cast<std::size_t>(n0));
  std::size_t f_base = 0;
  int level = 0;
  while (lg.num_vertices() > opts.base_size) {
    PARLAP_CHECK_MSG(level < opts.max_levels,
                     "BlockCholesky exceeded max_levels = " << opts.max_levels);
    const std::uint64_t lseed = level_seed(seed, level);
    const Vertex n = lg.num_vertices();
    const auto nz = static_cast<std::size_t>(n);
    BuildLevelTiming lt;
    lt.n = n;
    lt.edges = lg.num_edges();
    PARLAP_TRACE_SPAN_N(level_span, "build.level", "build");
    level_span.arg("level", static_cast<double>(level));
    level_span.arg("n", static_cast<double>(n));
    level_span.arg("m", static_cast<double>(lt.edges));
    WallTimer phase;

    // F_k <- 5DDSubset(G^(k-1))        (Algorithm 1, line 5). Its S-row
    // degree sums are the degrees phase.
    FiveDdResult fdd;
    {
      PARLAP_TRACE_SPAN_N(sp_five_dd, "build.five_dd", "build");
      fdd = five_dd_subset(lg, lg.live(), FiveDdDegree::kFull, lseed,
                           opts.five_dd, arena.five_dd);
      sp_five_dd.arg("f_size", static_cast<double>(fdd.f.size()));
    }
    lt.phases.degrees = fdd.degree_seconds;
    lt.phases.five_dd = phase.seconds() - fdd.degree_seconds;
    lt.edges_scanned = fdd.edges_scanned;
    lt.f_size = static_cast<Vertex>(fdd.f.size());

    // F's level-local index, slots and degrees.
    phase.reset();
    PARLAP_TRACE_SPAN_N(sp_partition, "build.partition", "build");
    if (arena.level_staging.size() <= static_cast<std::size_t>(level)) {
      arena.level_staging.emplace_back();
    }
    EliminationLevel& stage =
        arena.level_staging[static_cast<std::size_t>(level)];
    const std::size_t nf = fdd.f.size();
    stage.n = n;
    stage.nf = static_cast<Vertex>(nf);
    stage.nc = n - stage.nf;
    PARLAP_CHECK_MSG(stage.nc > 0, "5-DD subset consumed every vertex");
    stage.f_list.resize(nf);
    arena.f_index.assign(nz, kInvalidVertex);
    arena.f_degree.resize(nf);
    for (std::size_t i = 0; i < nf; ++i) {
      const Vertex v = fdd.f[i];
      const Vertex r = lg.rank(v);
      stage.f_list[i] = r;
      arena.f_index[static_cast<std::size_t>(r)] = static_cast<Vertex>(i);
      arena.slots[static_cast<std::size_t>(v)] = static_cast<Vertex>(f_base + i);
      arena.f_degree[i] = arena.five_dd.degree[static_cast<std::size_t>(
          lg.sample_position(v))];
    }
    f_base += nf;
    const std::span<const Vertex> f_index(arena.f_index.data(), nz);
    sp_partition.end();
    lt.phases.partition = phase.seconds();

    LevelStats ls;
    ls.n = n;
    ls.multi_edges = lt.edges;
    ls.f_size = stage.nf;
    ls.five_dd_rounds = fdd.rounds;

    phase.reset();
    {
      PARLAP_TRACE_SPAN("build.walk_graph", "build");
      build_walk_graph(lg, fdd.f, arena.walk_graph);
    }
    lt.phases.walk_graph = phase.seconds();

    // G^(k) <- TerminalWalks(G^(k-1), C_k)  (Algorithm 1, line 6), in
    // place: only the F-incident edges' slots change.
    phase.reset();
    {
      PARLAP_TRACE_SPAN("build.schur", "build");
      ls.walks = sample_schur_complement(lg, arena.walk_graph, fdd.f,
                                         f_index, seed,
                                         static_cast<std::uint64_t>(level),
                                         opts.walks, arena.walk_scratch);
    }
    lt.walked = ls.walks.walked;
    lt.resampled = ls.walks.resampled;
    lt.phases.schur = phase.seconds();

    phase.reset();
    {
      PARLAP_TRACE_SPAN("build.extract", "build");
      extract_level(arena.walk_graph, arena.f_degree, f_index, lg.live(),
                    arena, stage);
    }
    lt.phases.extract = phase.seconds();

    // F leaves the live list (counted with the walks it ends).
    phase.reset();
    lg.eliminate(ls.walks.edges_in - ls.walks.edges_out);
    lt.phases.schur += phase.seconds();

    chain.stats_.push_back(std::move(ls));
    chain.build_stats_.phases.accumulate(lt.phases);
    chain.build_stats_.edges_scanned += lt.edges_scanned;
    chain.build_stats_.walked += lt.walked;
    chain.build_stats_.resampled += lt.resampled;
    chain.build_stats_.level_timings.push_back(lt);
    ++level;
  }
  chain.build_stats_.levels = level;

  // Exact base-case factor (Thm 3.9-(3): O(1)-size system), grounded GTH
  // elimination in level-local order. The base vertices take the last
  // base_n slots, in increasing order.
  GroundedFactor base;
  const Vertex base_n = lg.num_vertices();
  for (Vertex j = 0; j < base_n; ++j) {
    arena.slots[static_cast<std::size_t>(lg.live()[static_cast<std::size_t>(j)])] =
        n0 - base_n + j;
  }
  {
    const WallTimer base_timer;
    PARLAP_TRACE_SPAN("build.base", "build");
    base = grounded_factor(lg.renumbered());
    chain.build_stats_.base_seconds = base_timer.seconds();
  }
  if (consumed != nullptr) {
    // The input's arrays were the level graph; free them before packing.
    lg.give_back(*consumed);
    *consumed = Multigraph();
  }

  // l for eps = 1/2d (Algorithm 2 line 4 + Lemma 3.5).
  int jacobi_terms = 1;
  if (opts.jacobi_terms > 0) {
    jacobi_terms = opts.jacobi_terms | 1;  // force odd
  } else {
    const double d = std::max(1, level);
    int l = static_cast<int>(std::ceil(std::log2(6.0 * d)));
    if (l % 2 == 0) ++l;
    jacobi_terms = std::max(1, l);
  }

  // Pack the staged levels into the immutable, CSR-packed apply form.
  {
    const WallTimer pack_timer;
    PARLAP_TRACE_SPAN("build.pack", "build");
    chain.chain_.finalize(
        std::span<const EliminationLevel>(arena.level_staging.data(),
                                          static_cast<std::size_t>(level)),
        arena.slots, base, jacobi_terms, build_id, opts.precision);
    chain.build_stats_.pack_seconds = pack_timer.seconds();
  }

  arena.end_build(chain.build_stats_);
  chain.build_stats_.total_seconds = build_timer.seconds();
  build_span.arg("levels", static_cast<double>(level));
  {
    static obs::LatencyHistogram& build_hist =
        obs::MetricsRegistry::global().histogram("parlap.build.seconds");
    static obs::Counter& builds =
        obs::MetricsRegistry::global().counter("parlap.build.chains");
    build_hist.record_seconds(chain.build_stats_.total_seconds);
    builds.add();
  }
  return chain;
}

void BlockCholeskyChain::apply(std::span<const double> b,
                               std::span<double> y) const {
  ApplyWorkspace ws;
  chain_.apply(b, y, ws);
}

}  // namespace parlap
