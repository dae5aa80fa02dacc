// ChainBuildArena — recycled scratch for chain construction (Algorithm 1).
//
// BlockCholeskyChain::build is a per-level pipeline (5-DD selection ->
// F-row adjacency + alias tables -> terminal-walk Schur sample -> level
// extraction) that historically materialized fresh heap structures at
// every level: a full copy of the input graph, a new WalkGraph, a new
// Multigraph for G^(k+1), fresh index maps. The arena owns all of that
// transient state instead, sized high-water-mark style and recycled
// across levels *and across builds*:
//
//   * two EdgeBuffers double-buffer the level graphs — G^(k) is read from
//     one while the terminal-walk sample of G^(k+1) is emitted into the
//     other, then the roles swap (level 0 reads the caller's graph
//     directly through MultigraphView, so nothing is ever copied);
//   * WalkGraph rows/alias tables, F/C index maps, weighted-degree
//     vectors, counting-sort histograms, level extraction's per-chunk
//     target slots, and the 5-DD sampling buffers all live here and
//     are resized (never reallocated, once warm) per level.
//
// The per-level sub-CSRs and f/c lists are staged in arena-recycled
// EliminationLevel buffers too; only the chain's own outputs — the
// packed ApplyChain arrays and the dense base pseudo-inverse — are
// allocated to persist. Those finalized arrays leave the arena through
// ApplyChain::finalize into 64-byte-aligned kernels::AlignedBuffer
// storage whose pages are first-touched under the active NUMA policy by
// the finalizing worker thread — the arena itself stays plain-vector
// scratch on whatever node grew it (see docs/PERFORMANCE.md).
//
// Telemetry: begin_build()/end_build() bracket one build and report how
// many arena buffers had to grow (`BuildStats::arena_allocations` — zero
// for a steady-state rebuild) and the arena's total capacity footprint
// (`peak_arena_bytes`). Arenas are pooled through the existing
// WorkspacePool so concurrent builders (FactorizationCache misses, the
// solve engine's single-flight factorizations) each hold private scratch
// while sequential builds reuse the warmest arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/apply_chain.hpp"
#include "core/build_stats.hpp"
#include "core/five_dd.hpp"
#include "core/terminal_walks.hpp"
#include "graph/multigraph.hpp"
#include "parallel/workspace_pool.hpp"

namespace parlap {

class ChainBuildArena {
 public:
  /// One level graph's struct-of-arrays edge storage plus its vertex
  /// count; viewable as a MultigraphView without copying.
  struct EdgeBuffer {
    std::vector<Vertex> u;
    std::vector<Vertex> v;
    std::vector<Weight> w;
    Vertex n = 0;

    [[nodiscard]] MultigraphView view() const noexcept {
      return MultigraphView(n, u, v, w);
    }
  };

  ChainBuildArena() = default;
  ChainBuildArena(const ChainBuildArena&) = delete;
  ChainBuildArena& operator=(const ChainBuildArena&) = delete;

  // --- per-level scratch (consumed by BlockCholeskyChain::build) --------
  std::vector<Weight> wdeg;          ///< weighted degrees of G^(k)
  std::vector<Weight> degree_partial; ///< chunk partials of the degree scan
  std::vector<Vertex> f_index;       ///< vertex -> F position
  std::vector<Vertex> c_index;       ///< vertex -> C position
  WalkGraph walk_graph;              ///< F-row adjacency + alias tables
  WalkBuildScratch walk_build;       ///< counting-sort scratch
  TerminalWalkScratch walk_sample;   ///< per-edge walk staging + keep flags
  FiveDdScratch five_dd;             ///< 5-DD sampling scratch
  std::vector<EdgeId> extract_hist;  ///< level-extraction transpose scratch
  std::vector<EdgeId> extract_base;
  /// Level extraction's per-chunk target slots (chunks x n), used to sum
  /// a row's parallel copies into one entry.
  std::vector<EdgeId> extract_slot;
  /// Per-level staging the ApplyChain packer consumes: one recycled
  /// EliminationLevel per level built so far (grows to the deepest chain
  /// this arena has seen; inner buffers keep their high-water capacity).
  std::vector<EliminationLevel> level_staging;

  /// The buffer the next level's edges should be emitted into. After
  /// emitting, call swap_buffers() to promote it to the current graph.
  [[nodiscard]] EdgeBuffer& out_buffer() noexcept { return bufs_[1 - front_]; }
  /// The buffer holding the current level graph G^(k) (valid after the
  /// first swap; level 0 is read from the caller's graph instead).
  [[nodiscard]] EdgeBuffer& cur_buffer() noexcept { return bufs_[front_]; }
  void swap_buffers() noexcept { front_ = 1 - front_; }

  // --- build telemetry ---------------------------------------------------
  /// Snapshots every owned buffer's capacity; pair with end_build().
  void begin_build();
  /// Writes `arena_allocations` (buffers grown since begin_build()) and
  /// `peak_arena_bytes` (total capacity now) into `stats`.
  void end_build(BuildStats& stats);

  /// Total bytes of capacity currently owned by the arena.
  [[nodiscard]] std::size_t capacity_bytes() const;

  /// The process-wide arena pool chain builds draw from when the caller
  /// does not pass an arena explicitly.
  static WorkspacePool<ChainBuildArena>& pool();

 private:
  template <typename Fn>
  void for_each_capacity(Fn&& fn) const;

  EdgeBuffer bufs_[2];
  int front_ = 0;
  std::vector<std::size_t> capacity_snapshot_;
};

}  // namespace parlap
