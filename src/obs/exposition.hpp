// Metric exporters: Prometheus text exposition (v0.0.4), a JSON snapshot
// and a human table, all rendered from MetricsRegistry::snapshot().
//
// The Prometheus names derived here are a compatibility surface —
// dashboards and alerts key on them. docs/OBSERVABILITY.md carries the
// stability table; change a mapping there first. The mapping is
// mechanical so it stays predictable:
//
//   dotted name "parlap.serve.solve_seconds" -> "parlap_serve_solve_seconds"
//   Counter                                  -> counter,   name + "_total"
//   Gauge                                    -> gauge,     name as-is
//   LatencyHistogram -> histogram: name_bucket{le="..."} over a fixed
//     seconds ladder re-bucketed from the fine log buckets (cumulative,
//     monotone, +Inf == _count), plus name_sum / name_count.
//
// Fine-to-ladder re-bucketing is conservative: a fine bucket counts
// toward ladder edge `le` iff its upper edge <= le, so every reported
// cumulative count is a lower bound within one fine bucket (<= 12.5%)
// of the exact value — the same contract the percentile walk gives.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace parlap::obs {

/// Prometheus text format v0.0.4 (the content type to serve it under is
/// kPrometheusContentType). Families are emitted in sample order with
/// `# HELP` / `# TYPE` headers.
[[nodiscard]] std::string render_prometheus(
    const std::vector<MetricSample>& samples);

inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// {"schema":"parlap-metrics-v1","metrics":[...]} — the `--metrics-out`
/// final snapshot shape, mirroring batch JSON v3's metrics object.
[[nodiscard]] std::string render_metrics_json(
    const std::vector<MetricSample>& samples);

/// The human table the tools' `--metrics` flag prints: one row per
/// sample, histogram percentiles in milliseconds.
[[nodiscard]] std::string render_metrics_table(
    const std::vector<MetricSample>& samples);

}  // namespace parlap::obs
