#include "core/level_graph.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "parallel/for_each.hpp"
#include "parallel/scan.hpp"
#include "support/check.hpp"

namespace parlap {

namespace {

/// Contiguous blocks the sweep splits the edge array into: one per
/// thread, none shorter than 16k slots. Rows and everything downstream
/// are the same for any block count.
int scan_blocks(EdgeId slots) {
  if (!parallelism_allowed()) return 1;
  return static_cast<int>(std::clamp<EdgeId>(
      slots >> 14, 1, static_cast<EdgeId>(thread_count())));
}

}  // namespace

void LevelGraph::sweep_block(const Vertex* us, const Vertex* vs,
                             const Weight* ws, const std::uint8_t* flag,
                             EdgeId lo, EdgeId hi, Block& blk) {
  // The buffer's size is its capacity; `used` counts the records, and
  // past the capacity only counts them (the caller grows the buffer and
  // sweeps the block again). Local pointers keep the hot loop in
  // registers.
  Record* out = blk.rec.data();
  const std::size_t cap = blk.rec.size();
  std::size_t used = 0;
  // Per 64 slots: a hit mask built without branching (about one slot in
  // ten hits, at random), then the hits in slot order, lowest bit first.
  for (EdgeId base = lo; base < hi; base += 64) {
    const EdgeId end = std::min(hi, base + 64);
    std::uint64_t hits = 0;
    for (EdgeId e = base; e < end; ++e) {
      hits |= static_cast<std::uint64_t>((flag[us[e]] | flag[vs[e]]) != 0)
              << (e - base);
    }
    for (; hits != 0; hits &= hits - 1) {
      const EdgeId e = base + std::countr_zero(hits);
      if (used < cap) out[used] = {e, us[e], vs[e], ws[e]};
      ++used;
    }
  }
  blk.used = used;
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

  // The sweep: copy each S-incident edge.
  const auto slots = static_cast<EdgeId>(u_.size());
  const int nb = scan_blocks(slots);
  if (blocks_.size() < static_cast<std::size_t>(nb)) {
    blocks_.resize(static_cast<std::size_t>(nb));
  }
  const Vertex* us = u_.data();
  const Vertex* vs = v_.data();
  const Weight* ws = w_.data();
  const std::uint8_t* flag = flag_.data();
#pragma omp parallel for schedule(static) num_threads(nb) if (nb > 1)
  for (int b = 0; b < nb; ++b) {
    sweep_block(us, vs, ws, flag, slots * b / nb, slots * (b + 1) / nb,
                blocks_[static_cast<std::size_t>(b)]);
  }
  // A block that outgrew its buffer grows here, on the calling thread, and
  // is swept again, so the region never allocates (a team thread that
  // mallocs takes a heap arena of its own). Warm builds never get here.
  for (int b = 0; b < nb; ++b) {
    Block& blk = blocks_[static_cast<std::size_t>(b)];
    if (blk.used <= blk.rec.size()) continue;
    blk.rec.resize(std::max<std::size_t>(std::bit_ceil(blk.used), 1024));
    sweep_block(us, vs, ws, flag, slots * b / nb, slots * (b + 1) / nb, blk);
  }

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
      if (flag[r.u] != 0) rows[cursor[pos[r.u]]++] = {r.slot, r.v, 1, r.w};
      if (flag[r.v] != 0) rows[cursor[pos[r.v]]++] = {r.slot, r.u, 0, r.w};
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
