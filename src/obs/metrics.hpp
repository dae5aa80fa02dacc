// Metrics registry — named counters, gauges, and log-bucketed latency
// histograms with atomic hot-path updates.
//
// The registry is the aggregation substrate the service layer's
// telemetry structs (EngineStats, FactorizationCache::Stats,
// PanelStats) read from: hot paths bump a Counter / record into a
// LatencyHistogram with a couple of relaxed atomic ops, and reporting
// code takes a snapshot() when a human or JSON consumer asks. It is
// also the future /metrics endpoint of the ROADMAP's serve daemon.
//
// Instruments are created on first use by name (find-or-create under
// the registry mutex) and live as long as the registry, so callers
// cache the returned reference and never pay the map lookup on the hot
// path. Metric names are dotted paths ("parlap.cache.hits");
// docs/OBSERVABILITY.md is the name reference.
//
// LatencyHistogram buckets durations at 3 significant bits per
// power-of-two octave, so any percentile it reports is the upper edge
// of the sample's bucket: monotone in q, and within 12.5% relative
// error of the exact order statistic for durations >= 8ns
// (tests/obs/metrics_test.cpp holds the bound against exact sorted
// quantiles).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace parlap::obs {

/// Monotone event counter. Totals across threads are exact: every
/// add() is one relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t d = 1) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, resident entries).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-bucketed duration histogram. record() is bucket-index arithmetic
/// plus three relaxed fetch_adds — safe and exact-in-count from any
/// number of threads. Percentiles come from a bucket walk, not a sort.
class LatencyHistogram {
 public:
  /// 8 exact sub-ns buckets + 61 octaves x 8 sub-buckets covers every
  /// uint64 nanosecond duration.
  static constexpr std::size_t kBuckets = 8 + 61 * 8;

  void record_ns(std::uint64_t ns) noexcept {
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void record_seconds(double seconds) noexcept {
    record_ns(seconds <= 0.0 ? 0
                             : static_cast<std::uint64_t>(seconds * 1e9));
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum_seconds() const noexcept {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// Nearest-rank percentile (q in [0, 1]) in seconds of the samples
  /// counted in `buckets` (kBuckets entries, as MetricSample::buckets
  /// holds them): the upper edge of the bucket holding the rank-th
  /// sample, 0 when every bucket is empty. Monotone in q; at most 12.5%
  /// above the exact order statistic for durations >= 8ns.
  [[nodiscard]] static double percentile_seconds(
      std::span<const std::uint64_t> buckets, double q) noexcept;

  /// Raw bucket count (tests compare across thread counts).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

  /// [0, kBuckets): ns < 8 maps exactly; otherwise the octave
  /// (bit_width) picks the row and the top 3 bits below the leading bit
  /// pick the sub-bucket.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t ns) noexcept {
    if (ns < 8) return static_cast<std::size_t>(ns);
    const int o = std::bit_width(ns);  // >= 4
    const std::uint64_t sub = (ns >> (o - 4)) & 7;
    return 8 + static_cast<std::size_t>(o - 4) * 8 +
           static_cast<std::size_t>(sub);
  }

  /// Largest duration (ns) that lands in bucket `b` — the value
  /// percentile_seconds() reports for samples in that bucket.
  [[nodiscard]] static std::uint64_t bucket_upper_ns(std::size_t b) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// One instrument's exported state (see MetricsRegistry::snapshot()).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;  ///< counter/gauge value; histogram sum of seconds
  std::uint64_t count = 0;  ///< histogram sample count
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  /// Histograms only: all kBuckets fine bucket counts, so exporters
  /// (Prometheus exposition) can re-bucket onto their own ladder.
  std::vector<std::uint64_t> buckets;
};

/// A histogram's exported state: count, summed seconds and every
/// bucket, with the mean and percentiles derived from those buckets.
[[nodiscard]] MetricSample histogram_sample(const LatencyHistogram& h);

/// The samples a histogram recorded between two of its readings
/// (`earlier` and `later`, both from histogram_sample): count, sum and
/// buckets subtracted, mean and percentiles derived from the difference.
/// Every field of a histogram only grows, so a later reading never falls
/// below an earlier one unless the histogram was reset in between.
[[nodiscard]] MetricSample histogram_delta(const MetricSample& later,
                                           const MetricSample& earlier);

/// Name -> instrument map. instance-per-scope is possible, but the
/// process-wide global() is what the instrumentation in core/service
/// feeds and the CLI exports.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime — cache them off the hot path.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name);

  /// All instruments, name-sorted. Values are read relaxed: exact once
  /// writers are quiescent, momentarily approximate under load.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Zeroes every instrument (instruments stay registered). The CLI
  /// resets before a run so the export covers that run alone.
  void reset();

 private:
  mutable std::mutex mutex_;
  // node-based maps: find-or-create never invalidates references.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace parlap::obs
