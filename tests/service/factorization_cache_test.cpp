// FactorizationCache unit tests: hit/miss accounting, LRU eviction under
// a budget, single-flight builds, and failure propagation.
#include "service/factorization_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/any_solver.hpp"

namespace parlap::service {
namespace {

/// A solver stub with a controllable cost; it is never asked to solve.
class StubSolver : public AnySolver {
 public:
  explicit StubSolver(EdgeId cost) : cost_(cost) {}

  [[nodiscard]] std::vector<RunReport> solve_panel(std::span<const Vector>,
                                                   std::span<Vector>,
                                                   double) const override {
    return {};
  }
  [[nodiscard]] const std::string& method() const noexcept override {
    return method_;
  }
  [[nodiscard]] double setup_seconds() const noexcept override { return 0; }
  [[nodiscard]] Vertex dimension() const noexcept override { return 1; }
  [[nodiscard]] EdgeId stored_entries() const noexcept override {
    return cost_;
  }

 private:
  std::string method_ = "stub";
  EdgeId cost_;
};

FactorizationKey key_for(std::uint64_t graph_hash) {
  FactorizationKey k;
  k.graph_hash = graph_hash;
  k.method = "stub";
  return k;
}

TEST(FactorizationCache, HitAndMissCounting) {
  FactorizationCache cache(/*budget_entries=*/0);
  int builds = 0;
  const auto factory = [&] {
    ++builds;
    return std::make_unique<StubSolver>(10);
  };

  const auto [first, hit1] = cache.get_or_create(key_for(1), factory);
  EXPECT_FALSE(hit1);
  const auto [second, hit2] = cache.get_or_create(key_for(1), factory);
  EXPECT_TRUE(hit2);
  EXPECT_EQ(first.get(), second.get());  // the same instance is shared
  EXPECT_EQ(builds, 1);

  const auto [other, hit3] = cache.get_or_create(key_for(2), factory);
  EXPECT_FALSE(hit3);
  EXPECT_EQ(builds, 2);

  const FactorizationCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.resident_count, 2u);
  EXPECT_EQ(s.resident_entries, 20u);
}

TEST(FactorizationCache, DistinctConfigsAreDistinctEntries) {
  FactorizationCache cache(0);
  const auto factory = [] { return std::make_unique<StubSolver>(1); };
  FactorizationKey a = key_for(1);
  FactorizationKey b = key_for(1);
  b.seed = 7;
  FactorizationKey c = key_for(1);
  c.split_scale = 0.5;
  FactorizationKey d = key_for(1);
  d.method = "other";
  (void)cache.get_or_create(a, factory);
  (void)cache.get_or_create(b, factory);
  (void)cache.get_or_create(c, factory);
  (void)cache.get_or_create(d, factory);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(FactorizationCache, EvictsLeastRecentlyUsedUnderBudget) {
  FactorizationCache cache(/*budget_entries=*/25);
  const auto make10 = [] { return std::make_unique<StubSolver>(10); };

  (void)cache.get_or_create(key_for(1), make10);  // resident: {1}
  (void)cache.get_or_create(key_for(2), make10);  // resident: {1, 2}
  (void)cache.get_or_create(key_for(1), make10);  // touch 1 -> LRU is 2
  (void)cache.get_or_create(key_for(3), make10);  // 30 > 25: evict 2

  FactorizationCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_entries, 20u);

  // 2 was evicted (miss on re-access); 1 survived (hit).
  const auto [r1, hit1] = cache.get_or_create(key_for(1), make10);
  EXPECT_TRUE(hit1);
  const auto [r2, hit2] = cache.get_or_create(key_for(2), make10);
  EXPECT_FALSE(hit2);
}

TEST(FactorizationCache, KeepsTheMostRecentOverBudgetEntry) {
  // A single factorization larger than the whole budget is still cached
  // (evicting it would thrash); everything else gets dropped.
  FactorizationCache cache(/*budget_entries=*/5);
  (void)cache.get_or_create(key_for(1),
                            [] { return std::make_unique<StubSolver>(100); });
  EXPECT_EQ(cache.stats().resident_count, 1u);
  const auto [r, hit] = cache.get_or_create(
      key_for(1), [] { return std::make_unique<StubSolver>(100); });
  EXPECT_TRUE(hit);

  (void)cache.get_or_create(key_for(2),
                            [] { return std::make_unique<StubSolver>(100); });
  const FactorizationCache::Stats s = cache.stats();
  EXPECT_EQ(s.resident_count, 1u);  // old giant evicted, new giant kept
  EXPECT_EQ(s.evictions, 1u);
}

TEST(FactorizationCache, FactoryFailureLeavesCacheUsable) {
  FactorizationCache cache(0);
  const auto boom = []() -> std::unique_ptr<AnySolver> {
    throw std::runtime_error("factorization failed");
  };
  EXPECT_THROW((void)cache.get_or_create(key_for(1), boom),
               std::runtime_error);
  // The failed key is not poisoned: a later good factory succeeds.
  const auto [r, hit] = cache.get_or_create(
      key_for(1), [] { return std::make_unique<StubSolver>(1); });
  EXPECT_FALSE(hit);
  EXPECT_NE(r, nullptr);
  EXPECT_EQ(cache.stats().resident_count, 1u);
}

TEST(FactorizationCache, PrecisionIsPartOfTheKey) {
  // An fp32 factorization must never be served to an fp64 request (or
  // vice versa): same graph, same method, different precision = two
  // distinct entries. kAuto is the engine's problem — it resolves the
  // mode BEFORE keying, so the cache only ever sees fp64/fp32.
  FactorizationCache cache(0);
  const auto factory = [] { return std::make_unique<StubSolver>(10); };
  FactorizationKey f64 = key_for(1);
  f64.precision = Precision::kFp64;
  FactorizationKey f32 = key_for(1);
  f32.precision = Precision::kFp32;
  (void)cache.get_or_create(f64, factory);
  const auto [r, hit] = cache.get_or_create(f32, factory);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  const auto [r64, hit64] = cache.get_or_create(f64, factory);
  EXPECT_TRUE(hit64);
}

/// Stub whose byte footprint is narrower than 8 bytes/entry — the shape
/// of an fp32 factorization.
class NarrowStubSolver final : public StubSolver {
 public:
  NarrowStubSolver(EdgeId entries, std::size_t bytes)
      : StubSolver(entries), bytes_(bytes) {}
  [[nodiscard]] std::size_t stored_bytes() const noexcept override {
    return bytes_;
  }

 private:
  std::size_t bytes_;
};

TEST(FactorizationCache, BudgetChargesBytesNotEntries) {
  // The budget is denominated in fp64-equivalent entries =
  // ceil(stored_bytes() / 8). A 10-entry solver storing float values
  // (40 bytes) costs 5, so twice as many fp32 factorizations fit in the
  // same budget as fp64 ones of equal structure.
  FactorizationCache cache(/*budget_entries=*/0);
  (void)cache.get_or_create(key_for(1),
                            [] { return std::make_unique<StubSolver>(10); });
  EXPECT_EQ(cache.stats().resident_entries, 10u);  // 80 bytes / 8
  (void)cache.get_or_create(key_for(2), [] {
    return std::make_unique<NarrowStubSolver>(10, 40);  // fp32: half
  });
  EXPECT_EQ(cache.stats().resident_entries, 15u);
  (void)cache.get_or_create(key_for(3), [] {
    return std::make_unique<NarrowStubSolver>(10, 1);  // cost floor is 1
  });
  EXPECT_EQ(cache.stats().resident_entries, 16u);
}

TEST(FactorizationCache, ConcurrentRequestsAreSingleFlight) {
  FactorizationCache cache(0);
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<AnySolver>> got(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const auto [solver, hit] = cache.get_or_create(key_for(1), [&] {
        ++builds;
        // Widen the race window so waiters actually wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_unique<StubSolver>(10);
      });
      got[static_cast<std::size_t>(t)] = solver;
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(builds.load(), 1);  // one build served all eight callers
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get());
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses,
            static_cast<std::uint64_t>(kThreads));
}

}  // namespace
}  // namespace parlap::service
