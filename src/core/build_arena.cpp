#include "core/build_arena.hpp"

#include <type_traits>

namespace parlap {

template <typename Fn>
void ChainBuildArena::for_each_capacity(Fn&& fn) const {
  // Fixed enumeration order: begin_build()/end_build() compare positions.
  const auto vec = [&fn](const auto& v) {
    fn(v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  graph.for_each_capacity(fn);
  vec(slots);
  vec(f_index);
  vec(f_degree);
  vec(walk_graph.off);
  vec(walk_graph.nbr);
  vec(walk_graph.w);
  vec(walk_graph.prob);
  vec(walk_graph.alias);
  vec(walk_scratch.ends);
  vec(walk_scratch.comp);
  vec(walk_scratch.comp_off);
  vec(walk_scratch.comp_rows);
  vec(walk_scratch.comp_vol);
  vec(walk_scratch.sets);
  vec(walk_scratch.failed);
  vec(walk_scratch.redo);
  vec(walk_scratch.redo_rows);
  vec(walk_scratch.redo_off);
  vec(five_dd.staging);
  vec(five_dd.sample);
  vec(five_dd.degree);
  vec(five_dd.induced);
  vec(five_dd.candidate);
  vec(extract_hist);
  vec(extract_slot);
  // Staging levels are enumerated last: entries appended mid-build land
  // beyond the begin_build() snapshot and are counted as growth.
  for (const EliminationLevel& lvl : level_staging) {
    vec(lvl.f_list);
    vec(lvl.cf_rows);
    vec(lvl.inv_x);
    vec(lvl.y_diag);
    for (const EliminationLevel::SubCsr* blk : {&lvl.ff, &lvl.fc, &lvl.cf}) {
      vec(blk->off);
      vec(blk->nbr);
      vec(blk->w);
    }
  }
}

void ChainBuildArena::begin_build() {
  capacity_snapshot_.clear();
  for_each_capacity(
      [this](std::size_t bytes) { capacity_snapshot_.push_back(bytes); });
}

void ChainBuildArena::end_build(BuildStats& stats) {
  std::size_t total = 0;
  std::int64_t grown = 0;
  std::size_t i = 0;
  for_each_capacity([&](std::size_t bytes) {
    total += bytes;
    // Buffers beyond the snapshot did not exist at begin_build() (e.g.
    // staging for a level deeper than any previous build): any capacity
    // they now hold is growth.
    const std::size_t before =
        i < capacity_snapshot_.size() ? capacity_snapshot_[i] : 0;
    if (bytes > before) ++grown;
    ++i;
  });
  stats.arena_allocations = grown;
  stats.peak_arena_bytes = total;
}

WorkspacePool<ChainBuildArena>& ChainBuildArena::pool() {
  static WorkspacePool<ChainBuildArena>* pool =
      new WorkspacePool<ChainBuildArena>;
  return *pool;
}

}  // namespace parlap
