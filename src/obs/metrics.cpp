#include "obs/metrics.hpp"

#include <algorithm>

namespace parlap::obs {

double LatencyHistogram::percentile_seconds(
    std::span<const std::uint64_t> buckets, double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : buckets) total += n;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank, 1-based; q == 0 degenerates to the first sample.
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total) + 0.9999999999);
  rank = std::clamp<std::uint64_t>(rank, 1, total);
  // The buckets sum to total >= rank, so the walk stops inside them.
  std::uint64_t seen = 0;
  std::size_t b = 0;
  while ((seen += buckets[b]) < rank) ++b;
  return static_cast<double>(bucket_upper_ns(b)) * 1e-9;
}

std::uint64_t LatencyHistogram::bucket_upper_ns(std::size_t b) noexcept {
  if (b < 8) return b;
  const std::size_t row = (b - 8) / 8;
  const std::uint64_t sub = (b - 8) % 8;
  const int o = static_cast<int>(row) + 4;  // bit_width of this octave
  const std::uint64_t lower =
      (std::uint64_t{1} << (o - 1)) + (sub << (o - 4));
  return lower + ((std::uint64_t{1} << (o - 4)) - 1);
}

void LatencyHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

namespace {

/// Fills a histogram sample's mean and percentiles from its count, sum
/// and buckets.
void derive_digest(MetricSample& s) {
  s.mean = s.count == 0 ? 0.0 : s.value / static_cast<double>(s.count);
  s.p50 = LatencyHistogram::percentile_seconds(s.buckets, 0.50);
  s.p95 = LatencyHistogram::percentile_seconds(s.buckets, 0.95);
  s.p99 = LatencyHistogram::percentile_seconds(s.buckets, 0.99);
}

}  // namespace

MetricSample histogram_sample(const LatencyHistogram& h) {
  MetricSample s;
  s.kind = MetricSample::Kind::kHistogram;
  s.value = h.sum_seconds();
  s.count = h.count();
  s.buckets.resize(LatencyHistogram::kBuckets);
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    s.buckets[b] = h.bucket_count(b);
  }
  derive_digest(s);
  return s;
}

MetricSample histogram_delta(const MetricSample& later,
                             const MetricSample& earlier) {
  MetricSample s = later;
  s.value -= earlier.value;
  s.count -= earlier.count;
  for (std::size_t b = 0; b < s.buckets.size(); ++b) {
    s.buckets[b] -= earlier.buckets[b];
  }
  derive_digest(s);
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry =  // immortal: instrumented code may
      new MetricsRegistry;            // run during static teardown
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = static_cast<double>(g->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s = histogram_sample(*h);
    s.name = name;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

}  // namespace parlap::obs
