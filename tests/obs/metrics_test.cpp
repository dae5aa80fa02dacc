// Metrics registry contract: histogram percentiles hold their
// documented error bound against exact sorted quantiles, and every
// instrument aggregates bit-identically across thread counts (the
// determinism story tsan and the worker-count e2e checks rely on).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "service/json.hpp"

namespace parlap::obs {
namespace {

/// Exact nearest-rank quantile of a sorted sample, in seconds.
double exact_quantile_seconds(const std::vector<std::uint64_t>& sorted_ns,
                              double q) {
  const auto total = static_cast<double>(sorted_ns.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * total));
  rank = std::clamp<std::size_t>(rank, 1, sorted_ns.size());
  return static_cast<double>(sorted_ns[rank - 1]) * 1e-9;
}

TEST(MetricsTest, BucketUpperBoundsRoundTrip) {
  // Every duration lands in a bucket whose upper edge is >= the value
  // and within 12.5% of it (for ns >= 8; below 8 the mapping is exact).
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> log_ns(0.0, 40.0);
  for (int i = 0; i < 20000; ++i) {
    const auto ns = static_cast<std::uint64_t>(std::exp2(log_ns(rng)));
    const std::size_t b = LatencyHistogram::bucket_index(ns);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    const std::uint64_t upper = LatencyHistogram::bucket_upper_ns(b);
    ASSERT_GE(upper, ns) << "ns=" << ns << " bucket=" << b;
    if (ns >= 8) {
      EXPECT_LE(static_cast<double>(upper),
                static_cast<double>(ns) * 1.125)
          << "ns=" << ns << " bucket=" << b;
    } else {
      EXPECT_EQ(upper, ns);
    }
  }
}

TEST(MetricsTest, PercentilesWithinBoundOfExactQuantiles) {
  // Log-uniform durations spanning ~10ns .. ~10s, fixed seed.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> log_ns(3.5, 33.0);
  LatencyHistogram hist;
  std::vector<std::uint64_t> samples;
  samples.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    const auto ns = static_cast<std::uint64_t>(std::exp2(log_ns(rng)));
    samples.push_back(ns);
    hist.record_ns(ns);
  }
  std::sort(samples.begin(), samples.end());

  EXPECT_EQ(hist.count(), samples.size());
  const MetricSample s = histogram_sample(hist);
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const double exact = exact_quantile_seconds(samples, q);
    const double approx = LatencyHistogram::percentile_seconds(s.buckets, q);
    // Never below the exact order statistic, never more than the
    // documented 12.5% above it.
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * 1.125 + 1e-12) << "q=" << q;
  }
}

TEST(MetricsTest, PercentilesAreMonotoneInQ) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::uint64_t> ns(1, std::uint64_t{1} << 30);
  LatencyHistogram hist;
  for (int i = 0; i < 10000; ++i) hist.record_ns(ns(rng));
  const MetricSample s = histogram_sample(hist);
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = LatencyHistogram::percentile_seconds(s.buckets, q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(MetricsTest, EmptyHistogramReportsZero) {
  const MetricSample s = histogram_sample(LatencyHistogram{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.mean, 0.0);
}

/// Runs `work(thread_index)` on `threads` concurrent threads.
void run_on(int threads, const std::function<void(int)>& work) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(work, t);
  for (auto& th : pool) th.join();
}

TEST(MetricsTest, CounterTotalsBitIdenticalAcrossThreadCounts) {
  // The same 40k increments, split across 1 vs 4 workers, must land on
  // the same totals bit-for-bit: Counter adds are integer fetch_adds.
  constexpr int kPerThread = 10000;
  std::uint64_t count_totals[2];
  const int thread_counts[2] = {1, 4};
  for (int c = 0; c < 2; ++c) {
    Counter counter;
    const int threads = thread_counts[c];
    const int per_thread = kPerThread * 4 / threads;
    run_on(threads, [&](int) {
      for (int i = 0; i < per_thread; ++i) counter.add(3);
    });
    count_totals[c] = counter.value();
  }
  EXPECT_EQ(count_totals[0], count_totals[1]);
  EXPECT_EQ(count_totals[0], std::uint64_t{3} * 4 * kPerThread);
}

TEST(MetricsTest, HistogramBucketsIdenticalAcrossThreadCounts) {
  // The same sample multiset recorded from 1 vs 4 threads fills the
  // same buckets with the same counts, so every derived percentile is
  // identical too.
  constexpr int kSamples = 40000;
  std::vector<std::uint64_t> samples;
  samples.reserve(kSamples);
  std::mt19937_64 rng(1234);
  std::uniform_int_distribution<std::uint64_t> ns(0, std::uint64_t{1} << 34);
  for (int i = 0; i < kSamples; ++i) samples.push_back(ns(rng));

  LatencyHistogram hists[2];
  const int thread_counts[2] = {1, 4};
  for (int c = 0; c < 2; ++c) {
    const int threads = thread_counts[c];
    const int chunk = kSamples / threads;
    run_on(threads, [&, c](int t) {
      for (int i = t * chunk; i < (t + 1) * chunk; ++i) {
        hists[c].record_ns(samples[static_cast<std::size_t>(i)]);
      }
    });
  }
  EXPECT_EQ(hists[0].count(), hists[1].count());
  EXPECT_EQ(hists[0].sum_seconds(), hists[1].sum_seconds());
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    ASSERT_EQ(hists[0].bucket_count(b), hists[1].bucket_count(b))
        << "bucket " << b;
  }
  const MetricSample s1 = histogram_sample(hists[0]);
  const MetricSample s4 = histogram_sample(hists[1]);
  EXPECT_EQ(s1.p50, s4.p50);
  EXPECT_EQ(s1.p95, s4.p95);
  EXPECT_EQ(s1.p99, s4.p99);
}

TEST(MetricsTest, RegistryFindOrCreateIsStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("test.counter");
  Counter& b = reg.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5u);

  // Concurrent find-or-create of overlapping names is safe and yields
  // one instrument per name.
  run_on(4, [&](int t) {
    for (int i = 0; i < 1000; ++i) {
      reg.counter("test.shared").add(1);
      reg.histogram("test.hist").record_ns(static_cast<std::uint64_t>(t + 1));
    }
  });
  EXPECT_EQ(reg.counter("test.shared").value(), 4000u);
  EXPECT_EQ(reg.histogram("test.hist").count(), 4000u);
}

TEST(MetricsTest, SnapshotExportsSortedSamplesAndResetZeroes) {
  MetricsRegistry reg;
  reg.counter("z.last").add(2);
  reg.counter("a.first").add(5);
  reg.gauge("m.mid").set(-3);
  reg.histogram("h.lat").record_seconds(0.001);

  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      samples.begin(), samples.end(),
      [](const MetricSample& x, const MetricSample& y) {
        return x.name < y.name;
      }));
  for (const MetricSample& s : samples) {
    if (s.name == "z.last") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kCounter);
      EXPECT_EQ(s.value, 2.0);
    } else if (s.name == "a.first") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kCounter);
      EXPECT_EQ(s.value, 5.0);
    } else if (s.name == "m.mid") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kGauge);
      EXPECT_EQ(s.value, -3.0);
    } else if (s.name == "h.lat") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kHistogram);
      EXPECT_EQ(s.count, 1u);
      EXPECT_GT(s.p50, 0.0);
      EXPECT_LE(s.p50, s.p95);
      EXPECT_LE(s.p95, s.p99);
    }
  }

  reg.reset();
  for (const MetricSample& s : reg.snapshot()) {
    EXPECT_EQ(s.value, 0.0) << s.name;
    EXPECT_EQ(s.count, 0u) << s.name;
  }
}

TEST(MetricsTest, SnapshotJsonEscapesMetricNames) {
  MetricsRegistry reg;
  reg.counter("odd.\"quoted\".name").add(3);
  const service::JsonValue doc =
      service::parse_json(render_metrics_json(reg.snapshot()));
  const service::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->as_array().size(), 1u);
  const service::JsonValue& sample = metrics->as_array()[0];
  ASSERT_NE(sample.find("name"), nullptr);
  EXPECT_EQ(sample.find("name")->as_string(), "odd.\"quoted\".name");
}

}  // namespace
}  // namespace parlap::obs
