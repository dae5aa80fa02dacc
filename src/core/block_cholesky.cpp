#include "core/block_cholesky.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include <omp.h>

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
/// graph rows list every multi-edge incident to F, so Y (= F-F), L_FC and
/// L_CF all derive from it without touching C-C edges. The parallel
/// copies the multigraph keeps for sampling (Lemma 3.2 splitting, walks
/// that land on the same pair) are summed as each row is split: ff and fc
/// hold one entry per (row, target), in first-occurrence order, each the
/// sum of its copies in walk-graph row order. The stored blocks are thus
/// the multigraph's Laplacian blocks up to rounding, and identical under
/// any thread count. `lvl` is arena-owned staging (f_list/c_list/n/nf/nc
/// already set by the caller); its buffers are recycled across levels and
/// builds, and the slot and counting-sort scratch come from the arena.
void extract_level(const WalkGraph& wg, std::span<const double> wdeg,
                   std::span<const Vertex> f_index,
                   std::span<const Vertex> c_index, ChainBuildArena& arena,
                   EliminationLevel& lvl) {
  const auto nfz = static_cast<std::size_t>(lvl.nf);
  const auto nz = static_cast<std::size_t>(lvl.n);
  lvl.inv_x.resize(nfz);
  lvl.y_diag.resize(nfz);

  // Rows are split in contiguous chunks, like parallel_for's static
  // schedule (one chunk below its grain). Chunk c owns slot[c*n, (c+1)*n):
  // slot[t] is where target t's entry of the row being split sits. A slot
  // is trusted only if it lies in the current row's range and that entry
  // names t, so stale slots from other rows, levels or builds never need
  // clearing.
  const int row_chunks =
      lvl.nf >= 2048 && parallelism_allowed()
          ? static_cast<int>(std::clamp<std::int64_t>(
                (std::int64_t{1} << 24) / std::max<std::int64_t>(lvl.n, 1), 1,
                thread_count()))
          : 1;
  arena.extract_slot.resize(static_cast<std::size_t>(row_chunks) * nz);
  const auto for_each_row = [&](auto&& row) {
#pragma omp parallel for schedule(static) num_threads(row_chunks) if (row_chunks > 1)
    for (int c = 0; c < row_chunks; ++c) {
      const auto cz = static_cast<std::size_t>(c);
      const auto chunks = static_cast<std::size_t>(row_chunks);
      EdgeId* slot = arena.extract_slot.data() + cz * nz;
      for (std::size_t i = nfz * cz / chunks; i < nfz * (cz + 1) / chunks; ++i) {
        row(i, slot);
      }
    }
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

  // Fill: a slot now holds the target's position in ff or fc. The Y
  // diagonal (induced F degree) sums every F copy in row order.
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
      const auto t = static_cast<std::size_t>(wg.nbr[static_cast<std::size_t>(p)]);
      const Weight w = wg.w[static_cast<std::size_t>(p)];
      const Vertex ft = f_index[t];
      if (ft != kInvalidVertex) {
        add(lvl.ff, ff_lo, pf, slot[t], ft, w);
        induced += w;
      } else {
        add(lvl.fc, fc_lo, pc, slot[t], c_index[t], w);
      }
    }
    const Vertex v = lvl.f_list[static_cast<std::size_t>(i)];
    const double x = wdeg[static_cast<std::size_t>(v)] - induced;
    lvl.y_diag[static_cast<std::size_t>(i)] = induced;
    // X_ff >= (4/5) deg(f) > 0 for non-isolated f by 5-DD; isolated
    // vertices get the pseudo-inverse convention 1/0 -> 0.
    lvl.inv_x[static_cast<std::size_t>(i)] = x > 0.0 ? 1.0 / x : 0.0;
  });

  // L_CF = transpose of fc: stable chunked counting sort by C column.
  const auto ncz = static_cast<std::size_t>(lvl.nc);
  {
    const auto entries = static_cast<EdgeId>(lvl.fc.nbr.size());
    const int chunks = std::max(
        1, std::min<int>(thread_count(),
                         static_cast<int>((std::int64_t{1} << 24) /
                                          std::max<std::int64_t>(
                                              static_cast<std::int64_t>(ncz), 1))));
    const EdgeId chunk_len = (entries + chunks - 1) / std::max(chunks, 1);
    arena.extract_hist.assign(static_cast<std::size_t>(chunks) * ncz, 0);
    EdgeId* hist = arena.extract_hist.data();
#pragma omp parallel for schedule(static) num_threads(chunks)
    for (int c = 0; c < chunks; ++c) {
      EdgeId* local = hist + static_cast<std::size_t>(c) * ncz;
      const EdgeId lo = c * chunk_len;
      const EdgeId hi = std::min(entries, lo + chunk_len);
      for (EdgeId p = lo; p < hi; ++p) {
        ++local[static_cast<std::size_t>(lvl.fc.nbr[static_cast<std::size_t>(p)])];
      }
    }
    lvl.cf.off.assign(ncz + 1, 0);
    parallel_for(std::size_t{0}, ncz, [&](std::size_t j) {
      EdgeId total = 0;
      for (int c = 0; c < chunks; ++c)
        total += hist[static_cast<std::size_t>(c) * ncz + j];
      lvl.cf.off[j] = total;
    });
    exclusive_scan(std::span<EdgeId>(lvl.cf.off));
    lvl.cf.nbr.resize(static_cast<std::size_t>(lvl.cf.off[ncz]));
    lvl.cf.w.resize(static_cast<std::size_t>(lvl.cf.off[ncz]));

    arena.extract_base.resize(static_cast<std::size_t>(chunks) * ncz);
    EdgeId* base = arena.extract_base.data();
    parallel_for(std::size_t{0}, ncz, [&](std::size_t j) {
      EdgeId run = lvl.cf.off[j];
      for (int c = 0; c < chunks; ++c) {
        base[static_cast<std::size_t>(c) * ncz + j] = run;
        run += hist[static_cast<std::size_t>(c) * ncz + j];
      }
    });
    // Row index of each fc entry: recover via upper_bound on fc.off; to
    // stay O(1) per entry we walk rows per chunk instead.
#pragma omp parallel for schedule(static) num_threads(chunks)
    for (int c = 0; c < chunks; ++c) {
      EdgeId* local = base + static_cast<std::size_t>(c) * ncz;
      const EdgeId lo = c * chunk_len;
      const EdgeId hi = std::min(entries, lo + chunk_len);
      if (lo >= hi) continue;
      // First row whose range intersects [lo, hi).
      auto it = std::upper_bound(lvl.fc.off.begin(), lvl.fc.off.end(), lo);
      auto row = static_cast<std::size_t>(it - lvl.fc.off.begin()) - 1;
      for (EdgeId p = lo; p < hi; ++p) {
        while (lvl.fc.off[row + 1] <= p) ++row;
        const auto j = static_cast<std::size_t>(
            lvl.fc.nbr[static_cast<std::size_t>(p)]);
        const auto slot = static_cast<std::size_t>(local[j]++);
        lvl.cf.nbr[slot] = static_cast<Vertex>(row);
        lvl.cf.w[slot] = lvl.fc.w[static_cast<std::size_t>(p)];
      }
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

  // G^(0) is read straight out of the caller's arrays; every later G^(k)
  // lives in the arena's double-buffered edge storage. Nothing is copied.
  // Per-level outputs are staged in the arena's recycled EliminationLevel
  // buffers and packed into the immutable ApplyChain after the loop.
  MultigraphView cur = g;
  int level = 0;
  while (cur.num_vertices() > opts.base_size) {
    PARLAP_CHECK_MSG(level < opts.max_levels,
                     "BlockCholesky exceeded max_levels = " << opts.max_levels);
    const std::uint64_t lseed = level_seed(seed, level);
    const Vertex n = cur.num_vertices();
    const auto nz = static_cast<std::size_t>(n);
    BuildLevelTiming lt;
    lt.n = n;
    lt.edges = cur.num_edges();
    PARLAP_TRACE_SPAN_N(level_span, "build.level", "build");
    level_span.arg("level", static_cast<double>(level));
    level_span.arg("n", static_cast<double>(n));
    level_span.arg("m", static_cast<double>(cur.num_edges()));
    WallTimer phase;

    PARLAP_TRACE_SPAN_N(sp_degrees, "build.degrees", "build");
    arena.wdeg.resize(nz);
    const std::span<const double> wdeg(arena.wdeg.data(), nz);
    weighted_degrees_into(cur, std::span<double>(arena.wdeg.data(), nz),
                          arena.degree_partial);
    sp_degrees.end();
    lt.phases.degrees = phase.seconds();

    // F_k <- 5DDSubset(G^(k-1))        (Algorithm 1, line 5)
    phase.reset();
    PARLAP_TRACE_SPAN_N(sp_five_dd, "build.five_dd", "build");
    FiveDdResult fdd =
        five_dd_subset(cur, wdeg, lseed, opts.five_dd, arena.five_dd);
    sp_five_dd.arg("f_size", static_cast<double>(fdd.f.size()));
    sp_five_dd.end();
    lt.phases.five_dd = phase.seconds();
    lt.f_size = static_cast<Vertex>(fdd.f.size());

    phase.reset();
    PARLAP_TRACE_SPAN_N(sp_partition, "build.partition", "build");
    if (arena.level_staging.size() <= static_cast<std::size_t>(level)) {
      arena.level_staging.emplace_back();
    }
    EliminationLevel& stage =
        arena.level_staging[static_cast<std::size_t>(level)];
    arena.f_index.assign(nz, kInvalidVertex);
    for (std::size_t i = 0; i < fdd.f.size(); ++i) {
      arena.f_index[static_cast<std::size_t>(fdd.f[i])] =
          static_cast<Vertex>(i);
    }
    stage.f_list.assign(fdd.f.begin(), fdd.f.end());
    stage.c_list.clear();
    stage.c_list.reserve(nz - fdd.f.size());
    arena.c_index.assign(nz, kInvalidVertex);
    for (Vertex v = 0; v < n; ++v) {
      if (arena.f_index[static_cast<std::size_t>(v)] == kInvalidVertex) {
        arena.c_index[static_cast<std::size_t>(v)] =
            static_cast<Vertex>(stage.c_list.size());
        stage.c_list.push_back(v);
      }
    }
    PARLAP_CHECK_MSG(!stage.c_list.empty(), "5-DD subset consumed every vertex");
    stage.n = n;
    stage.nf = static_cast<Vertex>(stage.f_list.size());
    stage.nc = static_cast<Vertex>(stage.c_list.size());
    const std::span<const Vertex> f_index(arena.f_index.data(), nz);
    const std::span<const Vertex> c_index(arena.c_index.data(), nz);
    sp_partition.end();
    lt.phases.partition = phase.seconds();

    LevelStats ls;
    ls.n = n;
    ls.multi_edges = cur.num_edges();
    ls.f_size = stage.nf;
    ls.five_dd_rounds = fdd.rounds;

    phase.reset();
    {
      PARLAP_TRACE_SPAN("build.walk_graph", "build");
      build_walk_graph_into(cur, f_index, stage.nf, arena.walk_graph,
                            arena.walk_build);
    }
    lt.phases.walk_graph = phase.seconds();

    // G^(k) <- TerminalWalks(G^(k-1), C_k)  (Algorithm 1, line 6)
    phase.reset();
    ChainBuildArena::EdgeBuffer& out = arena.out_buffer();
    out.n = stage.nc;
    {
      PARLAP_TRACE_SPAN("build.schur", "build");
      sample_schur_complement(cur, arena.walk_graph, f_index, c_index,
                              stage.nc, seed,
                              static_cast<std::uint64_t>(level), &ls.walks,
                              opts.walks, arena.walk_sample, out.u, out.v,
                              out.w);
    }
    lt.phases.schur = phase.seconds();

    phase.reset();
    {
      PARLAP_TRACE_SPAN("build.extract", "build");
      extract_level(arena.walk_graph, wdeg, f_index, c_index, arena, stage);
    }
    lt.phases.extract = phase.seconds();

    chain.stats_.push_back(std::move(ls));
    chain.build_stats_.phases.accumulate(lt.phases);
    chain.build_stats_.level_timings.push_back(lt);

    cur = out.view();
    arena.swap_buffers();
    if (level == 0 && consumed != nullptr) {
      // The (largest) input graph has been fully absorbed; release it so
      // its edge arrays never coexist with the rest of the build.
      *consumed = Multigraph();
    }
    ++level;
  }
  chain.build_stats_.levels = level;

  // Dense base-case pseudo-inverse (Thm 3.9-(3): O(1)-size system).
  DenseMatrix base_pinv;
  const Vertex base_n = cur.num_vertices();
  {
    const WallTimer base_timer;
    PARLAP_TRACE_SPAN("build.base", "build");
    base_pinv = pseudo_inverse(laplacian_dense(cur));
    chain.build_stats_.base_seconds = base_timer.seconds();
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
        n0, std::move(base_pinv), base_n, jacobi_terms, build_id,
        opts.precision);
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
