// FactorizationCache — an LRU cache of constructed AnySolver instances.
//
// Factorization is the expensive half of the factor-once / solve-many
// pipeline (seconds) while a solve is the cheap half (milliseconds), so a
// service handling repeated traffic against the same graphs must reuse
// factorizations across requests. The cache keys instances by *content*:
// the graph fingerprint (graph/fingerprint.hpp) plus the method name and
// the SolverConfig knobs that feed the factory — two jobs naming the same
// generator spec, or the same file loaded twice, share one entry.
//
// The memory budget is expressed in fp64-equivalent stored entries
// (8 bytes each), charged per instance via AnySolver::stored_bytes() —
// so an fp32-storage factorization (half the value bytes of the same
// structure) counts half an fp64 one against the budget. When
// an insert pushes the resident total past the budget, least-recently-
// used entries are dropped — except the most recent one, so a single
// over-budget factorization still completes and serves its requester
// (evicted instances stay alive for callers still holding the
// shared_ptr; "resident" means reachable through the cache).
//
// Concurrency: all operations are safe from any thread. Lookups of the
// same missing key are single-flight — one caller factorizes while the
// rest wait on a condition variable, so a burst of identical jobs costs
// one factorization, not workers-many.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "api/any_solver.hpp"
#include "graph/fingerprint.hpp"
#include "support/precision.hpp"
#include "support/types.hpp"

namespace parlap::service {

/// Identity of one factorization: what graph, which method, and the
/// config knobs the registry factory consumes.
struct FactorizationKey {
  std::uint64_t graph_hash = 0;  ///< graph_fingerprint of the input
  std::string method;            ///< registry name ("parlap", ...)
  std::uint64_t seed = 42;
  double split_scale = 0.0;
  int max_iterations = 0;
  /// Storage precision the factory builds with. Part of the identity:
  /// an fp32 and an fp64 factorization of the same graph are different
  /// objects and must never collide. Callers resolve kAuto against the
  /// concrete graph BEFORE keying (resolve_precision), so an auto job
  /// shares the entry of the explicit mode it resolves to.
  Precision precision = Precision::kFp64;

  bool operator==(const FactorizationKey&) const = default;
};

struct FactorizationKeyHash {
  [[nodiscard]] std::size_t operator()(const FactorizationKey& k) const;
};

class FactorizationCache {
 public:
  /// Counters since construction plus the current resident footprint.
  /// stats() copies every field under the lock its writers hold, so the
  /// invariants between fields (hits + misses == lookups, resident_count
  /// consistent with resident_entries) hold in every snapshot. One
  /// lookup's own counters come back in the same form (get_or_create).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< factorizations performed
    std::uint64_t evictions = 0;   ///< entries dropped for budget
    /// Resident total in fp64-equivalent entries: the sum of
    /// ceil(stored_bytes() / 8) over cached instances, so fp32
    /// factorizations count half their fp64 twins.
    EdgeId resident_entries = 0;
    std::size_t resident_count = 0;
    /// Wall-clock seconds spent inside miss factories (cache-miss cost
    /// attribution: what the batch paid to build rather than to solve).
    double build_seconds = 0.0;
    /// Single-flight waits: callers that blocked on another caller's
    /// in-progress factorization of the same key, and for how long.
    std::uint64_t single_flight_waits = 0;
    double single_flight_wait_seconds = 0.0;

    [[nodiscard]] std::uint64_t lookups() const noexcept {
      return hits + misses;
    }

    /// Adds `o`'s counters; resident_* are a footprint, not counts, and
    /// stay as they are.
    Stats& operator+=(const Stats& o) noexcept {
      hits += o.hits;
      misses += o.misses;
      evictions += o.evictions;
      build_seconds += o.build_seconds;
      single_flight_waits += o.single_flight_waits;
      single_flight_wait_seconds += o.single_flight_wait_seconds;
      return *this;
    }
  };

  /// `budget_entries` caps the resident total in fp64-equivalent
  /// entries (see Stats::resident_entries); 0 means unlimited.
  explicit FactorizationCache(EdgeId budget_entries = 0);

  FactorizationCache(const FactorizationCache&) = delete;
  FactorizationCache& operator=(const FactorizationCache&) = delete;

  /// Returns the cached solver for `key`, or runs `factory` (outside the
  /// cache lock, single-flight per key) and caches the result. The bool
  /// is true on a hit. A factory exception propagates to the caller
  /// whose factory threw and leaves the cache unchanged; waiters on
  /// that key then retry, the next one becoming the builder — so a
  /// transient failure costs one attempt per caller, never a poisoned
  /// entry. `lookup`, if set, receives this call's own counters: its hit
  /// or miss, its single-flight wait, and on a miss its build seconds
  /// and the evictions its insert caused (resident_* stay 0). The hit or
  /// miss and the wait are written before the factory runs, so a caller
  /// whose factory throws still sees them.
  [[nodiscard]] std::pair<std::shared_ptr<AnySolver>, bool> get_or_create(
      const FactorizationKey& key,
      const std::function<std::unique_ptr<AnySolver>()>& factory,
      Stats* lookup = nullptr);

  /// A copy of the counters, taken under the cache lock (builds run with
  /// it released, so a reader never waits on one).
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] EdgeId budget_entries() const noexcept { return budget_; }

 private:
  struct Entry {
    std::shared_ptr<AnySolver> solver;  ///< null while building
    EdgeId cost = 0;
    std::uint64_t last_use = 0;
    bool building = false;
  };

  void evict_to_budget_locked();

  const EdgeId budget_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<FactorizationKey, Entry, FactorizationKeyHash> entries_;
  std::uint64_t tick_ = 0;
  Stats stats_;  ///< under mutex_
};

}  // namespace parlap::service
