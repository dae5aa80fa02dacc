#include "core/terminal_walks.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <omp.h>

#include "parallel/alias_table.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace parlap {

namespace {

/// F-row entries a walk block holds: walks are handed out in blocks of
/// this many entries, so a row of any length spreads over the team.
constexpr EdgeId kWalkBlock = 512;

/// Redraws of one F component before its last draw is kept. At the
/// default split no component of the five oneshot benchmark graphs needs
/// more than 3 (seed 42); at 1 copy per edge rmat:11 needs up to 21.
constexpr int kMaxRedraws = 32;

/// Joins F rows a and b in the walks' shared union-find: a root only ever
/// links, by compare-and-swap, under a smaller root, so whatever the
/// interleaving every component's root ends as its least row. Finds halve
/// paths; any ancestor a racing store leaves is still in the same tree.
/// A flat tree is only read, so the many walks of one component's F-F
/// copies share its cache lines instead of passing them around.
void unite(Vertex* parent, Vertex a, Vertex b) {
  const auto at = [parent](Vertex x) {
    return std::atomic_ref<Vertex>(parent[static_cast<std::size_t>(x)]);
  };
  const auto find = [&](Vertex x) {
    for (Vertex p = at(x).load(std::memory_order_relaxed); p != x;
         p = at(x).load(std::memory_order_relaxed)) {
      const Vertex gp = at(p).load(std::memory_order_relaxed);
      if (gp == p) return p;
      at(x).store(gp, std::memory_order_relaxed);
      x = gp;
    }
    return x;
  };
  while (true) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a < b) std::swap(a, b);
    Vertex expected = a;
    if (at(a).compare_exchange_strong(expected, b,
                                      std::memory_order_relaxed)) {
      return;
    }
  }
}

/// Resolves the F rows' union-find into components, numbered in order of
/// their least row, and groups the rows by component (comp_off,
/// comp_rows; rows ascending) with each component's walk-graph volume
/// scanned into comp_vol. Serial, O(nf). Returns the component count.
Vertex group_components(std::span<const EdgeId> off, WalkScratch& s) {
  const std::size_t nf = off.size() - 1;
  // Every link points to a smaller row, already renumbered.
  Vertex ncomp = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const Vertex p = s.comp[i];
    s.comp[i] = p == static_cast<Vertex>(i)
                    ? ncomp++
                    : s.comp[static_cast<std::size_t>(p)];
  }
  const auto nc = static_cast<std::size_t>(ncomp);
  s.comp_off.assign(nc + 1, 0);
  s.comp_vol.assign(nc + 1, 0);
  for (std::size_t i = 0; i < nf; ++i) {
    const auto c = static_cast<std::size_t>(s.comp[i]);
    ++s.comp_off[c + 1];
    s.comp_vol[c + 1] += off[i + 1] - off[i];
  }
  for (std::size_t c = 0; c < nc; ++c) {
    s.comp_off[c + 1] += s.comp_off[c];
    s.comp_vol[c + 1] += s.comp_vol[c];
  }
  // Scatter with comp_off[c] as c's cursor, which leaves it at c + 1's
  // start; shifting restores the starts.
  s.comp_rows.resize(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    s.comp_rows[static_cast<std::size_t>(
        s.comp_off[static_cast<std::size_t>(s.comp[i])]++)] =
        static_cast<Vertex>(i);
  }
  for (std::size_t c = nc; c > 0; --c) s.comp_off[c] = s.comp_off[c - 1];
  s.comp_off[0] = 0;
  return ncomp;
}

}  // namespace

// A walk region's threads count into private WalkStats merged by
// accumulate(): integer sums and a max, equal in any merge order.
#pragma omp declare reduction(merge : WalkStats : omp_out.accumulate(omp_in)) \
    initializer(omp_priv = WalkStats{})

namespace {

/// One block of a row list's entries, [lo, hi) of the list, whose row i
/// holds entries [off[i], off[i + 1]).
struct WalkBlock {
  std::span<const EdgeId> off;
  std::size_t first;  ///< the last row starting at or before lo
  EdgeId lo;
  EdgeId hi;

  /// Calls fn(i, j_lo, j_hi) for each row i that meets the block, in
  /// order, with the row-local entries [j_lo, j_hi) it holds.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    for (std::size_t i = first; off[i] < hi; ++i) {
      fn(i, std::max(lo, off[i]) - off[i], std::min(hi, off[i + 1]) - off[i]);
    }
  }
};

/// Hands out a row list's entries in blocks of kWalkBlock, forked when
/// they pay: fn(block, stats) walks one block. Each thread counts into a
/// private WalkStats; the copies merge when the region joins. One
/// combined construct: its loop is set up before the team starts, so no
/// team thread allocates.
template <typename Fn>
WalkStats for_each_walk_block(std::span<const EdgeId> off, Fn&& fn) {
  const EdgeId volume = off.back();
  const EdgeId blocks = (volume + kWalkBlock - 1) / kWalkBlock;
  WalkStats stats;
#pragma omp parallel for schedule(dynamic, 1) reduction(merge : stats) \
    if (fork_pays(volume))
  for (EdgeId b = 0; b < blocks; ++b) {
    const EdgeId lo = b * kWalkBlock;
    const auto first = static_cast<std::size_t>(
        std::upper_bound(off.begin(), off.end(), lo) - off.begin() - 1);
    fn(WalkBlock{off, first, lo, std::min(volume, lo + kWalkBlock)}, stats);
  }
  return stats;
}

/// A walk block's first Philox blocks: entry n's stream begins with
/// below[n] (its first step's next_below draw), then coin[n] (its
/// next_double). 8 KB, on the walking thread's stack.
struct FirstDraws {
  std::array<std::uint64_t, kWalkBlock> below;
  std::array<std::uint64_t, kWalkBlock> coin;
};

}  // namespace

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

  // Rows in slot order, then an alias table per row (Lemma 2.6: O(deg)
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
                                  const WalkOptions& opts,
                                  WalkScratch& scratch) {
  const EdgeId m = g.num_edges();
  PARLAP_CHECK(walk_graph.rows() == static_cast<Vertex>(f.size()));
  PARLAP_CHECK(f_index.size() == static_cast<std::size_t>(g.num_vertices()));
  PARLAP_CHECK(level < (std::uint64_t{1} << 16));
  PARLAP_CHECK(opts.max_retries >= 1);

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
  const auto check_walks = [&] {
    PARLAP_CHECK_MSG(!retries_exhausted.load(),
                     "terminal walk failed to reach C within "
                         << cap << " steps after " << opts.max_retries
                         << " retries; is V\\C 5-DD?");
  };

  // Draw a of the entry at `slot` runs on stream walk_index(slot, a).
  const auto walk_index = [&](EdgeId slot, std::uint64_t a) {
    return ((level << 40) ^ static_cast<std::uint64_t>(slot)) ^ (a << 56);
  };

  struct WalkOutcome {
    Vertex at = kInvalidVertex;  ///< level-local; the terminal once done
    double inv_weight_sum = 0.0;
    int length = 0;
    int retries = 0;  ///< capped attempts before this one
  };
  // The walk from `start` whose first attempt stands at `out` (it may
  // have taken steps already); a capped attempt restarts at start.
  const auto run_walk = [&](Vertex start, WalkOutcome out, Rng& rng) {
    for (int attempt = 0;; ++attempt) {
      if (attempt >= opts.max_retries ||
          retries_exhausted.load(std::memory_order_relaxed)) {
        retries_exhausted.store(true, std::memory_order_relaxed);
        return WalkOutcome{};
      }
      if (attempt > 0) out = {start, 0.0, 0, attempt};
      while (true) {
        const Vertex fx = f_index[static_cast<std::size_t>(out.at)];
        if (fx == kInvalidVertex) return out;  // reached a terminal
        if (out.length >= cap) break;
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
        out.at = walk_graph.nbr[step];
        ++out.length;
      }
    }
  };

  // Keeps a draw of the walked edge e, w1 from its u end: e's slot
  // receives the sampled edge, or a tombstone. Returns the two terminals.
  using Ends = std::array<Vertex, 2>;
  const auto keep = [&](const RowEntry& e, const WalkOutcome& w1,
                        const WalkOutcome& w2, WalkStats& st) -> Ends {
    st.retries += w1.retries + w2.retries;
    st.total_steps += w1.length + w2.length;
    st.max_walk_len = std::max({st.max_walk_len, w1.length, w2.length});
    if (w1.at == w2.at) {
      g.drop_edge(e.slot);
    } else {
      const double inv_sum =
          1.0 / e.w + w1.inv_weight_sum + w2.inv_weight_sum;
      g.set_edge(e.slot, live[static_cast<std::size_t>(w1.at)],
                 live[static_cast<std::size_t>(w2.at)], 1.0 / inv_sum);
    }
    return {w1.at, w2.at};
  };

  // One draw of the walked edge e in F row fi's row, one edge at a time:
  // both walks, then keep. Draw 0 is the first; draw a > 0 is the a-th
  // redraw of e's component. Returns the two terminals, or kInvalidVertex
  // twice once a walk ran out of retries.
  const auto draw = [&](Vertex fi, const RowEntry& e, std::uint64_t a,
                        WalkStats& st) -> Ends {
    Rng rng(seed, RngTag::kTerminalWalk, walk_index(e.slot, a));
    const Vertex u = g.rank(e.from_u != 0 ? fi : e.other);
    const Vertex v = g.rank(e.from_u != 0 ? e.other : fi);
    const WalkOutcome w1 = run_walk(u, {u}, rng);
    const WalkOutcome w2 = run_walk(v, {v}, rng);
    if (retries_exhausted.load(std::memory_order_relaxed)) {
      return {kInvalidVertex, kInvalidVertex};
    }
    return keep(e, w1, w2, st);
  };

  // The same draw of entry e of F row i, given the first two draws of
  // its stream. The row vertex's walk consumes the stream first (a C end
  // takes no step, and an F-F edge walks from its u endpoint's row), so
  // they are that walk's first step. Where next_below would test for
  // rejection (low word < degree), the draw falls back to draw. A step
  // onto a terminal from an F-C edge ends the draw; otherwise both walks
  // go on at block 1, as draw's would.
  const auto draw_from = [&](std::size_t i, const RowEntry& e,
                             std::uint64_t a, std::uint64_t below,
                             std::uint64_t coin, WalkStats& st) -> Ends {
    const auto lo = static_cast<std::size_t>(off[i]);
    const auto deg = static_cast<std::uint64_t>(off[i + 1] - off[i]);
    const unsigned __int128 prod = static_cast<unsigned __int128>(below) * deg;
    if (static_cast<std::uint64_t>(prod) < deg) return draw(f[i], e, a, st);
    const std::size_t k = lo + static_cast<std::size_t>(prod >> 64);
    const std::size_t step =
        Rng::to_unit(coin) < walk_graph.prob[k]
            ? k
            : lo + static_cast<std::size_t>(walk_graph.alias[k]);
    WalkOutcome row{walk_graph.nbr[step], 1.0 / walk_graph.w[step], 1, 0};
    WalkOutcome other{g.rank(e.other)};
    if (f_index[static_cast<std::size_t>(row.at)] != kInvalidVertex ||
        g.selected(e.other)) {
      Rng rng(seed, RngTag::kTerminalWalk, walk_index(e.slot, a), 1);
      row = run_walk(g.rank(f[i]), row, rng);
      other = run_walk(other.at, other, rng);
      if (retries_exhausted.load(std::memory_order_relaxed)) {
        return {kInvalidVertex, kInvalidVertex};
      }
    }
    return e.from_u != 0 ? keep(e, row, other, st) : keep(e, other, row, st);
  };
  const auto f_row = [&](std::size_t i) {
    return g.row(static_cast<std::size_t>(g.sample_position(f[i])));
  };
  // Pass one of a walk block whose list row i is F row row_of(i): every
  // entry's draw-a stream and its first block, into d in block order.
  const auto derive_first_blocks = [&](const WalkBlock& blk, std::uint64_t a,
                                       auto&& row_of, FirstDraws& d) {
    std::size_t n = 0;
    blk.for_each_row([&](std::size_t i, EdgeId lo, EdgeId hi) {
      const RowEntry* row = f_row(row_of(i)).data();
      for (EdgeId j = lo; j < hi; ++j) {
        d.below[n++] = walk_index(row[static_cast<std::size_t>(j)].slot, a);
      }
    });
    Rng::first_draws(seed, RngTag::kTerminalWalk, {d.below.data(), n},
                     {d.coin.data(), n});
  };

  // Sized here, so no region allocates.
  const std::size_t nf = f.size();
  scratch.ends.resize(static_cast<std::size_t>(volume));
  scratch.comp.resize(nf);
  std::iota(scratch.comp.begin(), scratch.comp.end(), Vertex{0});
  Ends* const ends = scratch.ends.data();
  Vertex* const comp = scratch.comp.data();

  // The walks, in walk-graph order: entry p of the level is entry
  // p - off[i] of F row i. A row left early, once the retries ran out,
  // leaves q behind, but every later entry then returns before reading d.
  WalkStats stats = for_each_walk_block(
      off, [&](const WalkBlock& blk, WalkStats& st) {
        FirstDraws d;
        derive_first_blocks(blk, 0, std::identity{}, d);
        std::size_t q = 0;  // the entry's place in d
        blk.for_each_row([&](std::size_t i, EdgeId lo, EdgeId hi) {
          const std::span<const RowEntry> row = f_row(i);
          Ends* const row_ends = ends + off[i];
          Vertex joined = kInvalidVertex;  // the F neighbour last joined
          for (EdgeId j = lo; j < hi; ++j, ++q) {
            if (retries_exhausted.load(std::memory_order_relaxed)) return;
            const RowEntry& e = row[static_cast<std::size_t>(j)];
            Ends& out = row_ends[j];
            // An F-F edge is in two F rows; it walks from its u
            // endpoint's, and joins the two rows' components (once per
            // run of copies).
            if (g.selected(e.other)) {
              if (e.from_u == 0) {
                out = {kInvalidVertex, kInvalidVertex};
                continue;
              }
              if (e.other != joined) {
                joined = e.other;
                unite(comp, static_cast<Vertex>(i),
                      f_index[static_cast<std::size_t>(g.rank(e.other))]);
              }
            }
            out = draw_from(i, e, 0, d.below[q], d.coin[q], st);
            ++st.walked;
            if (out[0] == out[1]) ++st.dropped_loops;
          }
        });
      });
  check_walks();

  // The guard. Components are numbered in order of their least row;
  // comp_vol places their entries one after another.
  const Vertex ncomp = group_components(off, scratch);
  const std::span<const Vertex> comp_off(scratch.comp_off);
  const std::span<const Vertex> comp_rows(scratch.comp_rows);
  const std::span<const EdgeId> comp_vol(scratch.comp_vol);
  const bool fork = fork_pays(volume);
  const auto nk = static_cast<std::size_t>(g.num_vertices());
  scratch.sets.resize(
      (fork ? static_cast<std::size_t>(thread_count()) : 1) * nk);
  scratch.failed.resize(static_cast<std::size_t>(ncomp));
  // Component k's draw a is stamped stamp0 + k * (kMaxRedraws + 1) + a.
  // Stamps are 32 bits, so once they would wrap every entry is cleared.
  const std::uint64_t stamps =
      static_cast<std::uint64_t>(ncomp) * (kMaxRedraws + 1) + 1;
  if (scratch.epoch + stamps > std::numeric_limits<std::uint32_t>::max()) {
    std::fill(scratch.sets.begin(), scratch.sets.end(), WalkScratch::Set{});
    scratch.epoch = 0;
  }
  const std::uint64_t stamp0 = scratch.epoch + 1;
  scratch.epoch += stamps;
  const auto stamp_of = [&](Vertex k, int a) {
    return static_cast<std::uint32_t>(
        stamp0 + static_cast<std::uint64_t>(k) * (kMaxRedraws + 1) +
        static_cast<std::uint64_t>(a));
  };
  // Runs fn(p) for every entry p of component k that walks.
  const auto for_each_walked = [&](Vertex k, auto&& fn) {
    const auto kz = static_cast<std::size_t>(k);
    for (Vertex c = comp_off[kz]; c < comp_off[kz + 1]; ++c) {
      const auto r = static_cast<std::size_t>(
          comp_rows[static_cast<std::size_t>(c)]);
      for (EdgeId p = off[r]; p < off[r + 1]; ++p) {
        if (ends[p][0] != kInvalidVertex) fn(p);
      }
    }
  };
  const auto loops = [&](Vertex k) {
    EdgeId n = 0;
    for_each_walked(k, [&](EdgeId p) { n += ends[p][0] == ends[p][1]; });
    return n;
  };

  // Whether the kept draws of component k's entries connect N_C(K). The
  // terminals of K's walks are exactly N_C(K): each lies in it, and the
  // C end of an F-C edge is its own terminal. So one pass over the ends
  // makes each terminal a set when first seen (stamped) and joins the
  // two terminals of every sampled edge.
  const auto connects = [&](Vertex k, std::uint32_t stamp,
                            WalkScratch::Set* sets) {
    Vertex open = 0;  // sets made minus joins
    const auto find = [&](Vertex x) {
      if (sets[x].stamp != stamp) {
        sets[x] = {stamp, x};
        ++open;
        return x;
      }
      while (sets[x].parent != x) {
        x = sets[x].parent = sets[sets[x].parent].parent;  // path halving
      }
      return x;
    };
    for_each_walked(k, [&](EdgeId p) {
      const Vertex x = find(ends[p][0]);
      const Vertex y = find(ends[p][1]);
      if (x == y) return;
      sets[std::max(x, y)].parent = std::min(x, y);
      --open;
    });
    return open <= 1;
  };

  // Every component's first draw, in blocks of component-ordered
  // entries: each component is checked by the block holding its first
  // entry, on its thread's sets.
#pragma omp parallel for schedule(dynamic, 1) if (fork)
  for (EdgeId b = 0; b < blocks; ++b) {
    const EdgeId lo = b * kWalkBlock;
    const EdgeId hi = std::min(volume, lo + kWalkBlock);
    WalkScratch::Set* sets =
        scratch.sets.data() +
        static_cast<std::size_t>(omp_get_thread_num()) * nk;
    for (auto k = static_cast<Vertex>(
             std::lower_bound(comp_vol.begin(), comp_vol.end() - 1, lo) -
             comp_vol.begin());
         k < ncomp && comp_vol[static_cast<std::size_t>(k)] < hi; ++k) {
      scratch.failed[static_cast<std::size_t>(k)] =
          connects(k, stamp_of(k, 0), sets) ? 0 : 1;
    }
  }

  // The components that failed redraw all their walked entries together,
  // in blocks of entries, until each connects or kMaxRedraws is reached;
  // their dropped loops are recounted from the kept draws.
  std::vector<Vertex>& redo = scratch.redo;
  redo.clear();
  for (Vertex k = 0; k < ncomp; ++k) {
    if (scratch.failed[static_cast<std::size_t>(k)] == 0) continue;
    redo.push_back(k);
    stats.dropped_loops -= loops(k);
  }
  for (int a = 1; a <= kMaxRedraws && !redo.empty(); ++a) {
    stats.resampled += static_cast<std::int64_t>(redo.size());
    scratch.redo_rows.clear();
    scratch.redo_off.assign(1, 0);
    for (const Vertex k : redo) {
      const auto kz = static_cast<std::size_t>(k);
      for (Vertex c = comp_off[kz]; c < comp_off[kz + 1]; ++c) {
        const auto r = comp_rows[static_cast<std::size_t>(c)];
        scratch.redo_rows.push_back(r);
        scratch.redo_off.push_back(scratch.redo_off.back() +
                                   off[static_cast<std::size_t>(r) + 1] -
                                   off[static_cast<std::size_t>(r)]);
      }
    }
    const auto redo_row = [&](std::size_t i) {
      return static_cast<std::size_t>(scratch.redo_rows[i]);
    };
    stats.accumulate(for_each_walk_block(
        scratch.redo_off, [&](const WalkBlock& blk, WalkStats& st) {
          FirstDraws d;
          derive_first_blocks(blk, static_cast<std::uint64_t>(a), redo_row,
                              d);
          std::size_t q = 0;
          blk.for_each_row([&](std::size_t i, EdgeId lo, EdgeId hi) {
            const std::size_t r = redo_row(i);
            const std::span<const RowEntry> row = f_row(r);
            for (EdgeId j = lo; j < hi; ++j, ++q) {
              if (retries_exhausted.load(std::memory_order_relaxed)) return;
              Ends& e = ends[off[r] + j];
              if (e[0] == kInvalidVertex) continue;  // F-F edge, second row
              e = draw_from(r, row[static_cast<std::size_t>(j)],
                            static_cast<std::uint64_t>(a), d.below[q],
                            d.coin[q], st);
            }
          });
        }));
    check_walks();
    // A component leaves once it connects, or at the last redraw.
    std::erase_if(redo, [&](Vertex k) {
      const bool done = a == kMaxRedraws ||
                        connects(k, stamp_of(k, a), scratch.sets.data());
      if (done) stats.dropped_loops += loops(k);
      return done;
    });
  }

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
  WalkScratch scratch;
  const WalkStats ws = sample_schur_complement(lg, walk_graph, f, f_index,
                                               seed, level, opts, scratch);
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
