#include "core/level_graph.hpp"

#include <algorithm>
#include <numeric>

#include "parallel/for_each.hpp"
#include "parallel/scan.hpp"
#include "support/check.hpp"

namespace parlap {

namespace {

/// Contiguous blocks the sweep splits the edge array into: one per
/// thread, none shorter than 16k slots. Ranks, rows and everything
/// downstream are the same for any block count.
int scan_blocks(EdgeId slots) {
  if (!parallelism_allowed()) return 1;
  return static_cast<int>(std::clamp<EdgeId>(
      slots >> 14, 1, static_cast<EdgeId>(thread_count())));
}

}  // namespace

void LevelGraph::sweep_block(const Vertex* us, const Vertex* vs,
                             const Weight* ws, const std::uint8_t* flag,
                             Vertex tomb, EdgeId lo, EdgeId hi, Block& blk) {
  // The buffer's size is its capacity; `used` counts the records. Local
  // pointers keep the hot loop in registers.
  Record* out = blk.rec.data();
  std::size_t cap = blk.rec.size();
  std::size_t used = 0;
  EdgeId live = 0;
  for (EdgeId e = lo; e < hi; ++e) {
    const Vertex a = us[e];
    const Vertex c = vs[e];
    if ((flag[a] | flag[c]) != 0) {
      if (used == cap) {
        blk.rec.resize(std::max<std::size_t>(2 * cap, 1024));
        out = blk.rec.data();
        cap = blk.rec.size();
      }
      out[used++] = {e, live, a, c, ws[e]};
    }
    live += a != tomb ? 1 : 0;
  }
  blk.used = used;
  blk.live = live;
}

void LevelGraph::reset_ids(Vertex n0) {
  PARLAP_CHECK(n0 >= 1);
  n0_ = n0;
  const auto nz = static_cast<std::size_t>(n0);
  live_.resize(nz);
  std::iota(live_.begin(), live_.end(), Vertex{0});
  rank_.resize(nz);
  std::iota(rank_.begin(), rank_.end(), Vertex{0});
  flag_.assign(nz + 1, 0);
  pos_.resize(nz);
  sample_.clear();
  live_edges_ = static_cast<EdgeId>(u_.size());
  tombstones_ = 0;
}

void LevelGraph::assign(MultigraphView g) {
  u_.assign(g.us().begin(), g.us().end());
  v_.assign(g.vs().begin(), g.vs().end());
  w_.assign(g.ws().begin(), g.ws().end());
  reset_ids(g.num_vertices());
}

void LevelGraph::adopt(Multigraph& g) {
  g.swap_edge_arrays(u_, v_, w_);
  reset_ids(g.num_vertices());
}

void LevelGraph::give_back(Multigraph& g) { g.swap_edge_arrays(u_, v_, w_); }

EdgeId LevelGraph::scan(std::span<const Vertex> s) {
  clear_marks();
  sample_.assign(s.begin(), s.end());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto v = static_cast<std::size_t>(s[i]);
    PARLAP_DCHECK(s[i] >= 0 && s[i] < n0_ && flag_[v] == 0);
    flag_[v] = kSampled;
    pos_[v] = static_cast<Vertex>(i);
  }

  // The sweep: copy each S-incident edge with its rank within the block.
  const auto slots = static_cast<EdgeId>(u_.size());
  const int nb = scan_blocks(slots);
  if (blocks_.size() < static_cast<std::size_t>(nb)) {
    blocks_.resize(static_cast<std::size_t>(nb));
  }
  const Vertex* us = u_.data();
  const Vertex* vs = v_.data();
  const Weight* ws = w_.data();
  const std::uint8_t* flag = flag_.data();
  const Vertex tomb = n0_;
#pragma omp parallel for schedule(static) num_threads(nb) if (nb > 1)
  for (int b = 0; b < nb; ++b) {
    sweep_block(us, vs, ws, flag, tomb, slots * b / nb, slots * (b + 1) / nb,
                blocks_[static_cast<std::size_t>(b)]);
  }
  EdgeId rank_base = 0;
  for (int b = 0; b < nb; ++b) {
    Block& blk = blocks_[static_cast<std::size_t>(b)];
    blk.first_rank = rank_base;
    rank_base += blk.live;
  }
  PARLAP_DCHECK(rank_base == live_edges_);

  // Rows: a stable counting sort of the records by sample position.
  // row_hist_ holds per-block counts, then per-block write cursors.
  const std::size_t ns = s.size();
  const Vertex* pos = pos_.data();
  row_hist_.assign(static_cast<std::size_t>(nb) * ns, 0);
  EdgeId* hist = row_hist_.data();
#pragma omp parallel for schedule(static) num_threads(nb) if (nb > 1)
  for (int b = 0; b < nb; ++b) {
    EdgeId* local = hist + static_cast<std::size_t>(b) * ns;
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    for (const Record& r : std::span<const Record>(blk.rec.data(), blk.used)) {
      if (flag[r.u] != 0) ++local[pos[r.u]];
      if (flag[r.v] != 0) ++local[pos[r.v]];
    }
  }
  row_off_.resize(ns + 1);
  parallel_for(std::size_t{0}, ns, [&](std::size_t i) {
    EdgeId total = 0;
    for (int b = 0; b < nb; ++b) total += hist[static_cast<std::size_t>(b) * ns + i];
    row_off_[i] = total;
  });
  row_off_[ns] = 0;
  const EdgeId volume = exclusive_scan(std::span<EdgeId>(row_off_));
  parallel_for(std::size_t{0}, ns, [&](std::size_t i) {
    EdgeId run = row_off_[i];
    for (int b = 0; b < nb; ++b) {
      EdgeId& h = hist[static_cast<std::size_t>(b) * ns + i];
      const EdgeId count = h;
      h = run;
      run += count;
    }
  });
  rows_.resize(static_cast<std::size_t>(volume));
  RowEntry* rows = rows_.data();
#pragma omp parallel for schedule(static) num_threads(nb) if (nb > 1)
  for (int b = 0; b < nb; ++b) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    EdgeId* cursor = hist + static_cast<std::size_t>(b) * ns;
    for (const Record& r : std::span<const Record>(blk.rec.data(), blk.used)) {
      const EdgeId rank = blk.first_rank + r.rank;
      if (flag[r.u] != 0) rows[cursor[pos[r.u]]++] = {rank, r.slot, r.v, 1, r.w};
      if (flag[r.v] != 0) rows[cursor[pos[r.v]]++] = {rank, r.slot, r.u, 0, r.w};
    }
  }
  return slots;
}

void LevelGraph::select(std::span<const Vertex> f) {
  for (const Vertex v : f) {
    PARLAP_CHECK(in_sample(v));
    flag_[static_cast<std::size_t>(v)] |= kSelected;
  }
}

void LevelGraph::clear_marks() noexcept {
  for (const Vertex v : sample_) flag_[static_cast<std::size_t>(v)] = 0;
  sample_.clear();
}

void LevelGraph::eliminate(EdgeId dropped) {
  std::size_t kept = 0;
  for (const Vertex v : live_) {
    if (selected(v)) continue;
    rank_[static_cast<std::size_t>(v)] = static_cast<Vertex>(kept);
    live_[kept++] = v;
  }
  live_.resize(kept);
  clear_marks();
  live_edges_ -= dropped;
  tombstones_ += dropped;
  if (tombstones_ > live_edges_) compact(false);
}

void LevelGraph::compact(bool renumber) {
  // Serial and in place: a write never overtakes the read it follows.
  EdgeId out = 0;
  const auto slots = static_cast<EdgeId>(u_.size());
  for (EdgeId e = 0; e < slots; ++e) {
    const auto i = static_cast<std::size_t>(e);
    if (u_[i] == n0_) continue;
    const auto o = static_cast<std::size_t>(out++);
    u_[o] = renumber ? rank_[static_cast<std::size_t>(u_[i])] : u_[i];
    v_[o] = renumber ? rank_[static_cast<std::size_t>(v_[i])] : v_[i];
    w_[o] = w_[i];
  }
  PARLAP_DCHECK(out == live_edges_);
  u_.resize(static_cast<std::size_t>(out));
  v_.resize(static_cast<std::size_t>(out));
  w_.resize(static_cast<std::size_t>(out));
  tombstones_ = 0;
}

MultigraphView LevelGraph::renumbered() {
  clear_marks();
  compact(true);
  return MultigraphView(num_vertices(), u_, v_, w_);
}

}  // namespace parlap
