// Build-phase telemetry for chain construction (Algorithm 1).
//
// BuildStats answers "where did the factorization time go" at two
// granularities: per-phase wall time summed over the whole build, and the
// same breakdown per elimination level. It also carries the arena
// counters that prove the zero-realloc property of the build pipeline
// (ChainBuildArena, build_arena.hpp): `arena_allocations` counts scratch
// buffers that had to grow during the build, so a steady-state rebuild
// against a warmed arena reports 0.
//
// The struct is deliberately lightweight (no core dependencies) so the
// api layer can embed it in RunReport and the service/tools layers can
// serialize it without pulling in the solver headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace parlap {

/// Wall-clock seconds of one pass through Algorithm 1's per-level phases.
/// Each level works on one in-place edge array (core/level_graph.hpp);
/// only the 5-DD sweep reads all of it.
struct BuildPhaseTimes {
  double degrees = 0.0;     ///< S-row degree and induced-degree sums
  double five_dd = 0.0;     ///< 5DDSubset (Algorithm 3): sampling, the
                            ///< sweep per round, S rows, the 1/5 filter
  double partition = 0.0;   ///< F bookkeeping: F index, slots, F degrees
  double walk_graph = 0.0;  ///< F rows of the walk graph + alias tables
  double schur = 0.0;       ///< terminal walks of the F-incident edges,
                            ///< written in place (Algorithm 4), their
                            ///< connectivity guard, and the live-list
                            ///< update (plus any compaction)
  double extract = 0.0;     ///< level sub-CSR extraction (Y, L_FC, L_CF)

  [[nodiscard]] double total() const noexcept {
    return degrees + five_dd + partition + walk_graph + schur + extract;
  }

  void accumulate(const BuildPhaseTimes& o) noexcept {
    degrees += o.degrees;
    five_dd += o.five_dd;
    partition += o.partition;
    walk_graph += o.walk_graph;
    schur += o.schur;
    extract += o.extract;
  }
};

/// One elimination level's size and phase breakdown.
struct BuildLevelTiming {
  Vertex n = 0;        ///< vertices of G^(k-1) entering the level
  EdgeId edges = 0;    ///< multi-edges entering the level
  Vertex f_size = 0;   ///< |F_k| eliminated
  /// Edge-array slots the level's sweeps read, tombstones included: one
  /// pass per 5-DD round.
  EdgeId edges_scanned = 0;
  EdgeId walked = 0;   ///< F-incident edges whose terminal walks ran
  /// F-component redraws the connectivity guard ran (WalkStats::resampled)
  std::int64_t resampled = 0;
  BuildPhaseTimes phases;
};

/// What one (or, after accumulate(), several) chain build(s) cost.
struct BuildStats {
  double total_seconds = 0.0;  ///< whole build() call, levels + base
  double base_seconds = 0.0;   ///< grounded GTH factor of the base case
  /// Packing the staged levels into the immutable CSR ApplyChain.
  double pack_seconds = 0.0;
  int levels = 0;              ///< elimination levels built (max on merge)
  /// High-water total capacity of the build arena, in bytes, at build end.
  std::size_t peak_arena_bytes = 0;
  /// Arena scratch buffers that grew during this build; 0 in steady state
  /// (an arena warmed by a previous build of a same-shape problem).
  std::int64_t arena_allocations = 0;
  /// Work counters summed over levels (see BuildLevelTiming).
  EdgeId edges_scanned = 0;
  EdgeId walked = 0;
  std::int64_t resampled = 0;
  BuildPhaseTimes phases;  ///< summed over all levels
  /// Per-level breakdown of the largest single build seen (kept from the
  /// stats with the most levels when merging components/rounds).
  std::vector<BuildLevelTiming> level_timings;

  /// Merges another build's cost into this one (components of one solver,
  /// escalation rounds): seconds and counters add, `levels` and the arena
  /// footprint take the max — sequential builds reuse one pooled arena,
  /// so each already reports the shared high-water mark — and per-level
  /// timings keep the deeper chain's breakdown.
  void accumulate(const BuildStats& o) {
    total_seconds += o.total_seconds;
    base_seconds += o.base_seconds;
    pack_seconds += o.pack_seconds;
    if (o.peak_arena_bytes > peak_arena_bytes) {
      peak_arena_bytes = o.peak_arena_bytes;
    }
    arena_allocations += o.arena_allocations;
    edges_scanned += o.edges_scanned;
    walked += o.walked;
    resampled += o.resampled;
    phases.accumulate(o.phases);
    if (o.levels > levels) {
      levels = o.levels;
      level_timings = o.level_timings;
    }
  }
};

}  // namespace parlap
