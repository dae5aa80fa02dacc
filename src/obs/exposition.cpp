#include "obs/exposition.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "support/json_writer.hpp"
#include "support/table.hpp"

namespace parlap::obs {

namespace {

// Ladder of histogram upper edges in seconds, chosen to straddle the
// serving regimes (sub-ms cache hits through multi-second cold builds).
constexpr double kLadder[] = {1e-6, 1e-5,   1e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
                              1e-2, 2.5e-2, 5e-2, 0.1,  0.25, 0.5,    1.0,
                              2.5,  5.0,    10.0, 30.0, 60.0};

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (and anything
// else outside that set) become underscores.
std::string prometheus_name(const std::string& dotted) {
  std::string out = dotted;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_header(std::string& out, const std::string& name,
                   const std::string& source, const char* type) {
  out += "# HELP ";
  out += name;
  out += " parlap metric ";
  out += source;
  out += "\n# TYPE ";
  out += name;
  out += " ";
  out += type;
  out += "\n";
}

void append_histogram(std::string& out, const std::string& name,
                      const MetricSample& s) {
  append_header(out, name, s.name, "histogram");
  // Cumulative count of fine buckets whose upper edge fits under each
  // ladder edge. Fine buckets are ns-indexed; ladder edges are seconds.
  std::size_t fine = 0;
  std::uint64_t cumulative = 0;
  for (const double le : kLadder) {
    const auto le_ns = static_cast<std::uint64_t>(le * 1e9);
    while (fine < s.buckets.size() &&
           LatencyHistogram::bucket_upper_ns(fine) <= le_ns) {
      cumulative += s.buckets[fine];
      ++fine;
    }
    out += name;
    out += "_bucket{le=\"";
    append_double(out, le);
    out += "\"} ";
    append_u64(out, cumulative);
    out += "\n";
  }
  out += name;
  out += "_bucket{le=\"+Inf\"} ";
  append_u64(out, s.count);
  out += "\n";
  out += name;
  out += "_sum ";
  append_double(out, s.value);
  out += "\n";
  out += name;
  out += "_count ";
  append_u64(out, s.count);
  out += "\n";
}

const char* kind_string(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter:
      return "counter";
    case MetricSample::Kind::kGauge:
      return "gauge";
    case MetricSample::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string render_prometheus(const std::vector<MetricSample>& samples) {
  std::string out;
  out.reserve(samples.size() * 128);
  for (const MetricSample& s : samples) {
    const std::string name = prometheus_name(s.name);
    switch (s.kind) {
      case MetricSample::Kind::kCounter: {
        const std::string total = name + "_total";
        append_header(out, total, s.name, "counter");
        out += total;
        out += " ";
        append_double(out, s.value);
        out += "\n";
        break;
      }
      case MetricSample::Kind::kGauge: {
        append_header(out, name, s.name, "gauge");
        out += name;
        out += " ";
        append_double(out, s.value);
        out += "\n";
        break;
      }
      case MetricSample::Kind::kHistogram:
        append_histogram(out, name, s);
        break;
    }
  }
  return out;
}

std::string render_metrics_json(const std::vector<MetricSample>& samples) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.member("schema", "parlap-metrics-v1");
  w.key("metrics");
  w.begin_array();
  for (const MetricSample& s : samples) {
    w.begin_object();
    w.member("name", s.name);
    w.member("kind", kind_string(s.kind));
    w.member("value", s.value);
    if (s.kind == MetricSample::Kind::kHistogram) {
      w.member("count", s.count);
      w.member("mean", s.mean);
      w.member("p50", s.p50);
      w.member("p95", s.p95);
      w.member("p99", s.p99);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

std::string render_metrics_table(const std::vector<MetricSample>& samples) {
  TextTable table("metrics: process-wide registry (this run)");
  table.set_header(
      {"metric", "kind", "value", "count", "p50_ms", "p95_ms", "p99_ms"}, 4);
  for (const MetricSample& s : samples) {
    const std::string kind = kind_string(s.kind);
    if (s.kind == MetricSample::Kind::kHistogram) {
      table.add_row({s.name, kind, s.value,
                     static_cast<std::int64_t>(s.count), s.p50 * 1e3,
                     s.p95 * 1e3, s.p99 * 1e3});
    } else {
      table.add_row({s.name, kind, s.value, std::string(""),
                     std::string(""), std::string(""), std::string("")});
    }
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

}  // namespace parlap::obs
