// Stats-window contract: a window is the current reading of lifetime
// instruments minus the oldest reading kept inside it. An empty window
// digests to zeros, samples leave once the window's base reading was
// taken after them, the window digest is bucket-identical to a
// histogram fed only the in-window samples, a window younger than 60s
// reaches back to the first reading, and readings taken while 4 threads
// record stay exact (the tsan-routed concurrency surface of the serve
// daemon's last-60s stats).
#include "obs/snapshot_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace parlap::obs {
namespace {

constexpr std::uint64_t kSecond = 1'000'000'000ull;
// An arbitrary clock origin for the injected clock.
constexpr std::uint64_t kStart = 1000 * kSecond;

struct Reading {
  std::uint64_t events = 0;
  MetricSample latency;
};

using Window = SnapshotWindow<Reading>;

/// A counter and a histogram, as the serve daemon's lifetime
/// instruments are.
struct Instruments {
  Counter events;
  LatencyHistogram latency;

  [[nodiscard]] Reading read() const {
    return Reading{events.value(), histogram_sample(latency)};
  }
  void record(std::uint64_t ns) {
    events.add();
    latency.record_ns(ns);
  }
};

void tick(Window& w, const Instruments& in, std::uint64_t now_ns) {
  w.tick(now_ns, [&in] { return in.read(); });
}

/// The window at now_ns: the current reading minus the window's base.
Reading window_at(const Window& w, const Instruments& in,
                  std::uint64_t now_ns) {
  const Reading now = in.read();
  const Reading& base = w.base(now_ns).reading;
  return Reading{now.events - base.events,
                 histogram_delta(now.latency, base.latency)};
}

TEST(SnapshotWindow, EmptyWindowDigestsToZero) {
  Instruments in;
  Window w;
  for (std::uint64_t s = 0; s <= 90; ++s) tick(w, in, kStart + s * kSecond);
  const Reading d = window_at(w, in, kStart + 90 * kSecond);
  EXPECT_EQ(d.events, 0u);
  EXPECT_EQ(d.latency.count, 0u);
  EXPECT_EQ(d.latency.value, 0.0);
  EXPECT_EQ(d.latency.mean, 0.0);
  EXPECT_EQ(d.latency.p50, 0.0);
  EXPECT_EQ(d.latency.p95, 0.0);
  EXPECT_EQ(d.latency.p99, 0.0);
}

TEST(SnapshotWindow, SamplesLeaveOnceTheBaseFollowsThem) {
  // Readings at 0, 5, 10, ... s; three samples between the readings at
  // 0 and 5 s, two more at 61 s.
  Instruments in;
  Window w;
  tick(w, in, kStart);
  for (int i = 0; i < 3; ++i) in.record(500);
  for (std::uint64_t s = 1; s <= 60; ++s) tick(w, in, kStart + s * kSecond);
  // At 60 s the first reading is exactly a window old: still the base.
  EXPECT_EQ(window_at(w, in, kStart + 60 * kSecond).latency.count, 3u);

  tick(w, in, kStart + 61 * kSecond);
  in.record(700);
  in.record(700);
  // From 61 s the base is the reading at 5 s, taken after the three.
  const Reading d = window_at(w, in, kStart + 61 * kSecond);
  EXPECT_EQ(d.events, 2u);
  EXPECT_EQ(d.latency.count, 2u);
  EXPECT_EQ(d.latency.p99,
            static_cast<double>(LatencyHistogram::bucket_upper_ns(
                LatencyHistogram::bucket_index(700))) *
                1e-9);
  // At 65 s the reading at 5 s is exactly a window old and is the base;
  // the three, recorded before it, stay out.
  for (std::uint64_t s = 62; s <= 65; ++s) tick(w, in, kStart + s * kSecond);
  EXPECT_EQ(window_at(w, in, kStart + 65 * kSecond).events, 2u);
  // Once every reading after the two is inside the window, they leave too.
  for (std::uint64_t s = 66; s <= 130; ++s) {
    tick(w, in, kStart + s * kSecond);
  }
  EXPECT_EQ(window_at(w, in, kStart + 130 * kSecond).latency.count, 0u);
}

TEST(SnapshotWindow, DigestMatchesHistogramOfInWindowSamples) {
  // Samples every second for 120 s. At 120 s the base is the reading
  // taken at 60 s, before that second's samples, so the window holds
  // exactly the samples of seconds 60..120.
  Instruments in;
  Window w;
  LatencyHistogram in_window;
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::uint64_t> dur(1, 50'000'000);
  for (std::uint64_t s = 0; s <= 120; ++s) {
    tick(w, in, kStart + s * kSecond);
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t ns = dur(rng);
      in.record(ns);
      if (s >= 60) in_window.record_ns(ns);
    }
  }
  const Reading d = window_at(w, in, kStart + 120 * kSecond);
  const MetricSample want = histogram_sample(in_window);
  ASSERT_EQ(d.events, want.count);
  ASSERT_EQ(d.latency.count, want.count);
  EXPECT_EQ(d.latency.buckets, want.buckets);
  EXPECT_EQ(d.latency.p50, want.p50);
  EXPECT_EQ(d.latency.p95, want.p95);
  EXPECT_EQ(d.latency.p99, want.p99);
  // The sum is a difference of two lifetime sums in seconds.
  EXPECT_NEAR(d.latency.mean, want.mean, want.mean * 1e-9);
}

TEST(SnapshotWindow, YoungWindowReachesBackToTheFirstReading) {
  // A daemon younger than the window reports everything since start(),
  // where it takes its first reading, and nothing from before it.
  Instruments in;
  Window w;
  for (int i = 0; i < 4; ++i) in.record(100);
  tick(w, in, kStart);
  for (std::uint64_t s = 1; s <= 59; ++s) {
    tick(w, in, kStart + s * kSecond);
    if (s % 8 == 0) in.record(300);
  }
  const Reading d = window_at(w, in, kStart + 59 * kSecond);
  EXPECT_EQ(d.events, 7u);
  EXPECT_EQ(d.latency.count, 7u);
  // The window covers the 59 s since that reading, not 60.
  EXPECT_EQ(w.base(kStart + 59 * kSecond).at_ns, kStart);
}

TEST(SnapshotWindow, ReadingsWhileFourThreadsRecordStayExact) {
  // Four threads record a fixed multiset while this thread takes a
  // reading each injected epoch and digests the window. Every window
  // seen holds at most the samples recorded, and once the writers are
  // done the window (still based on the first reading) equals a
  // histogram fed the same samples from one thread, bucket for bucket.
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 50000;
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<std::uint64_t> dur(1, 10'000'000);
  std::vector<std::uint64_t> samples(kThreads * kPerThread);
  for (std::uint64_t& s : samples) s = dur(rng);
  LatencyHistogram serial;
  for (const std::uint64_t s : samples) serial.record_ns(s);
  const MetricSample want = histogram_sample(serial);

  Instruments in;
  Window w;
  tick(w, in, kStart);
  std::atomic<int> running{kThreads};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        in.record(samples[static_cast<std::size_t>(t) * kPerThread + i]);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // The clock stops at one window after the first reading, which then
  // stays the base.
  std::uint64_t now = kStart;
  std::uint64_t seen = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    now = std::min(now + Window::kEpochNs, kStart + Window::kWindowNs);
    tick(w, in, now);
    const Reading d = window_at(w, in, now);
    EXPECT_LE(d.latency.count, want.count);
    EXPECT_GE(d.events, seen);
    seen = d.events;
  }
  for (std::thread& t : pool) t.join();
  const Reading d = window_at(w, in, kStart + Window::kWindowNs);
  EXPECT_EQ(d.events, want.count);
  EXPECT_EQ(d.latency.count, want.count);
  EXPECT_EQ(d.latency.buckets, want.buckets);
  EXPECT_EQ(d.latency.value, want.value);
}

}  // namespace
}  // namespace parlap::obs
