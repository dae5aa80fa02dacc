#include "service/factorization_cache.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace parlap::service {

namespace {

/// Process-wide cache metrics (summed across cache instances; the
/// per-instance Stats stay the per-batch source of truth). References
/// resolved once — the hot path never touches the registry map.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& waits;
  obs::LatencyHistogram& build_seconds;
  obs::LatencyHistogram& wait_seconds;

  static CacheMetrics& get() {
    static CacheMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new CacheMetrics{reg.counter("parlap.cache.hits"),
                              reg.counter("parlap.cache.misses"),
                              reg.counter("parlap.cache.evictions"),
                              reg.counter("parlap.cache.single_flight_waits"),
                              reg.histogram("parlap.cache.build_seconds"),
                              reg.histogram("parlap.cache.wait_seconds")};
    }();
    return *m;
  }
};

}  // namespace

std::size_t FactorizationKeyHash::operator()(
    const FactorizationKey& k) const {
  std::uint64_t h = k.graph_hash;
  h = fingerprint_mix_string(h, k.method);
  h = fingerprint_mix(h, k.seed);
  // Canonicalize -0.0 before bit-casting: operator== compares doubles
  // numerically, and equal keys must hash equally.
  const double scale = k.split_scale == 0.0 ? 0.0 : k.split_scale;
  h = fingerprint_mix(h, std::bit_cast<std::uint64_t>(scale));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(k.max_iterations)));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(k.precision));
  return static_cast<std::size_t>(h);
}

FactorizationCache::FactorizationCache(EdgeId budget_entries)
    : budget_(budget_entries) {}

std::pair<std::shared_ptr<AnySolver>, bool> FactorizationCache::get_or_create(
    const FactorizationKey& key,
    const std::function<std::unique_ptr<AnySolver>()>& factory,
    Stats* lookup) {
  PARLAP_TRACE_SPAN_N(lookup_span, "cache.lookup", "cache");
  CacheMetrics& metrics = CacheMetrics::get();
  Stats mine;

  std::unique_lock lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.building) {
    // Someone else is factorizing this key; wait for the publication, or
    // for the build to fail, which erases the entry and makes this
    // caller the builder.
    const std::uint64_t wait_began_ns = steady_now_ns();
    {
      PARLAP_TRACE_SPAN("cache.wait", "cache");
      cv_.wait(lock, [&] {
        it = entries_.find(key);
        return it == entries_.end() || !it->second.building;
      });
    }
    mine.single_flight_waits = 1;
    mine.single_flight_wait_seconds =
        static_cast<double>(steady_now_ns() - wait_began_ns) * 1e-9;
    metrics.waits.add();
    metrics.wait_seconds.record_seconds(mine.single_flight_wait_seconds);
  }
  const bool hit = it != entries_.end();
  (hit ? mine.hits : mine.misses) = 1;
  (hit ? metrics.hits : metrics.misses).add();
  lookup_span.arg("hit", hit ? 1.0 : 0.0);
  stats_ += mine;
  if (lookup != nullptr) *lookup = mine;
  if (hit) {
    it->second.last_use = ++tick_;
    return {it->second.solver, true};
  }
  {
    Entry placeholder;
    placeholder.building = true;
    entries_.emplace(key, std::move(placeholder));
  }
  lock.unlock();

  std::shared_ptr<AnySolver> solver;
  const WallTimer build_timer;
  try {
    PARLAP_TRACE_SPAN("cache.build", "cache");
    solver = factory();
  } catch (...) {
    lock.lock();
    entries_.erase(key);
    cv_.notify_all();
    throw;
  }
  const double build_seconds = build_timer.seconds();
  metrics.build_seconds.record_seconds(build_seconds);

  lock.lock();
  Entry& e = entries_.at(key);
  e.solver = solver;
  e.building = false;
  // Budget in fp64-equivalent entries: fp32 storage reports half the
  // bytes, so it charges half the cost of the same fp64 structure.
  e.cost = std::max<EdgeId>(
      1, static_cast<EdgeId>((solver->stored_bytes() + 7) / 8));
  e.last_use = ++tick_;
  const std::uint64_t evictions_before = stats_.evictions;
  stats_.build_seconds += build_seconds;
  stats_.resident_entries += e.cost;
  ++stats_.resident_count;
  evict_to_budget_locked();
  if (lookup != nullptr) {
    lookup->build_seconds = build_seconds;
    lookup->evictions = stats_.evictions - evictions_before;
  }
  cv_.notify_all();
  return {std::move(solver), false};
}

void FactorizationCache::evict_to_budget_locked() {
  if (budget_ == 0) return;
  while (stats_.resident_entries > budget_) {
    // Least-recently-used completed entry — but never the most recent
    // one, so a single over-budget factorization is still cached.
    auto victim = entries_.end();
    std::size_t completed = 0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.building) continue;
      ++completed;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (completed <= 1 || victim == entries_.end()) return;
    stats_.resident_entries -= victim->second.cost;
    --stats_.resident_count;
    ++stats_.evictions;
    CacheMetrics::get().evictions.add();
    entries_.erase(victim);
  }
}

FactorizationCache::Stats FactorizationCache::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace parlap::service
