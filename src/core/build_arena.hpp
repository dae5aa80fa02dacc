// ChainBuildArena — recycled scratch for chain construction (Algorithm 1).
//
// BlockCholeskyChain::build is a per-level pipeline (5-DD selection ->
// F-row adjacency + alias tables -> terminal-walk Schur sample -> level
// extraction). The arena owns all of its transient state, sized
// high-water-mark style and recycled across levels *and across builds*:
//
//   * one LevelGraph (level_graph.hpp) holds every level graph: a single
//     edge array in input vertex ids, rewritten in place only where F_k
//     touches it, plus its live-vertex list, flags, sweep blocks and
//     sample rows. The view overload copies the input into it; the
//     consuming overload swaps the input's own arrays in (and back out
//     when the build ends), so nothing is copied;
//   * WalkGraph rows/alias tables, the level-local F index, the input
//     vertices' slots, the F degrees, level extraction's per-chunk target
//     slots and transpose histograms, and the 5-DD sampling buffers all
//     live here and are resized (never reallocated, once warm) per level.
//
// The per-level sub-CSRs and F lists are staged in arena-recycled
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
#include "core/level_graph.hpp"
#include "core/terminal_walks.hpp"
#include "parallel/workspace_pool.hpp"

namespace parlap {

class ChainBuildArena {
 public:
  ChainBuildArena() = default;
  ChainBuildArena(const ChainBuildArena&) = delete;
  ChainBuildArena& operator=(const ChainBuildArena&) = delete;

  // --- per-build and per-level scratch (BlockCholeskyChain::build) -----
  LevelGraph graph;                  ///< G^(k), in place, input ids
  std::vector<Vertex> slots;         ///< input vertex -> elimination slot
  std::vector<Vertex> f_index;       ///< level-local id -> F position
  std::vector<Weight> f_degree;      ///< weighted degree of each F vertex
  WalkGraph walk_graph;              ///< F-row adjacency + alias tables
  FiveDdScratch five_dd;             ///< 5-DD sampling scratch
  std::vector<EdgeId> extract_hist;  ///< level-extraction transpose scratch
  std::vector<EdgeId> extract_base;
  /// Level extraction's per-chunk target slots (chunks x n_k), used to sum
  /// a row's parallel copies into one entry.
  std::vector<EdgeId> extract_slot;
  /// Per-level staging the ApplyChain packer consumes: one recycled
  /// EliminationLevel per level built so far (grows to the deepest chain
  /// this arena has seen; inner buffers keep their high-water capacity).
  std::vector<EliminationLevel> level_staging;

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

  std::vector<std::size_t> capacity_snapshot_;
};

}  // namespace parlap
