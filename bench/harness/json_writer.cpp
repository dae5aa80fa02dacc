#include "harness/json_writer.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <ostream>

#include "linalg/kernels/kernels.hpp"
#include "support/json_writer.hpp"

#ifndef PARLAP_GIT_COMMIT
#define PARLAP_GIT_COMMIT "unknown"
#endif
#ifndef PARLAP_BUILD_TYPE
#define PARLAP_BUILD_TYPE "unknown"
#endif

namespace parlap::bench {

namespace {

const char* getenv_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : fallback;
}

}  // namespace

// ---------------------------------------------------------------------------
// Timing aggregation
// ---------------------------------------------------------------------------

TimingSummary summarize(std::span<const double> samples_s) {
  TimingSummary s;
  s.reps = static_cast<std::int64_t>(samples_s.size());
  if (samples_s.empty()) return s;

  std::vector<double> sorted(samples_s.begin(), samples_s.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = (n % 2 == 1) ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);

  double sum = 0.0;
  for (const double x : sorted) sum += x;
  s.mean = sum / static_cast<double>(n);
  if (n >= 2) {
    double ss = 0.0;
    for (const double x : sorted) ss += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(n - 1));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Run metadata
// ---------------------------------------------------------------------------

bool smoke() {
  const char* v = std::getenv("PARLAP_SMOKE");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

RunMetadata collect_metadata() {
  RunMetadata md;
  md.commit = getenv_or("PARLAP_GIT_COMMIT", PARLAP_GIT_COMMIT);

  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char ts[32];
  std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%SZ", &utc);
  md.timestamp_utc = ts;

  char host[256] = "unknown";
  if (gethostname(host, sizeof(host) - 1) != 0) {
    std::snprintf(host, sizeof(host), "unknown");
  }
  md.hostname = host;

#if defined(__clang__)
  md.compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
  md.compiler = "gcc " __VERSION__;
#else
  md.compiler = "unknown";
#endif
  md.build_type = PARLAP_BUILD_TYPE;
  md.threads = omp_get_max_threads();
  md.smoke = smoke();

  md.cpu_model = getenv_or("PARLAP_BENCH_CPU_MODEL", "");
  md.cpu_flags = getenv_or("PARLAP_BENCH_CPU_FLAGS", "");
  const char* nodes_env = std::getenv("PARLAP_BENCH_NUMA_NODES");
  if (nodes_env != nullptr && *nodes_env != '\0') {
    md.numa_nodes = std::max(1, std::atoi(nodes_env));
  }
  md.simd_detected = kernels::simd_level_name(kernels::detected_simd_level());
  md.simd_active = kernels::simd_level_name(kernels::active_simd_level());
  md.precision = getenv_or("PARLAP_BENCH_PRECISION", "fp64");
  return md;
}

// ---------------------------------------------------------------------------
// BenchReporter
// ---------------------------------------------------------------------------

BenchReporter& BenchReporter::instance() {
  static BenchReporter reporter;
  return reporter;
}

BenchReporter::~BenchReporter() {
  try {
    write_to_env_path();
  } catch (...) {
    // Never throw out of a destructor at process exit.
  }
}

void BenchReporter::record(
    std::string name,
    std::initializer_list<std::pair<const char*, double>> metrics,
    std::span<const double> times_s) {
  BenchCase c;
  c.name = std::move(name);
  c.metrics.reserve(metrics.size());
  for (const auto& [k, v] : metrics) c.metrics.emplace_back(k, v);
  c.times_s.assign(times_s.begin(), times_s.end());
  record(std::move(c));
}

void BenchReporter::record_time(
    std::string name,
    std::initializer_list<std::pair<const char*, double>> metrics,
    double seconds) {
  record(std::move(name), metrics, std::span<const double>(&seconds, 1));
}

void BenchReporter::write(std::ostream& out) const {
  const RunMetadata md = collect_metadata();
  std::string doc;
  JsonWriter w(doc);
  w.begin_object();
  w.member("schema_version", std::int64_t{1});
  w.member("experiment", experiment_);

  w.key("meta");
  w.begin_object();
  w.member("commit", md.commit);
  w.member("timestamp_utc", md.timestamp_utc);
  w.member("hostname", md.hostname);
  w.member("compiler", md.compiler);
  w.member("build_type", md.build_type);
  w.member("threads", md.threads);
  w.member("smoke", md.smoke);
  w.member("precision", md.precision);
  w.key("host");
  w.begin_object();
  w.member("cpu_model", md.cpu_model);
  w.member("cpu_flags", md.cpu_flags);
  w.member("numa_nodes", md.numa_nodes);
  w.member("simd_detected", md.simd_detected);
  w.member("simd_active", md.simd_active);
  w.end_object();
  w.end_object();

  w.key("cases");
  w.begin_array();
  for (const BenchCase& c : cases_) {
    w.begin_object();
    w.member("name", c.name);
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : c.metrics) w.member(k, v);
    w.end_object();
    if (!c.times_s.empty()) {
      const TimingSummary t = summarize(c.times_s);
      w.key("timing_s");
      w.begin_object();
      w.member("reps", t.reps);
      w.member("median", t.median);
      w.member("mean", t.mean);
      w.member("stddev", t.stddev);
      w.member("min", t.min);
      w.member("max", t.max);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.end_object();
  doc += '\n';
  out << doc;
}

bool BenchReporter::write_to_env_path() {
  if (written_ || cases_.empty()) return false;
  const char* path = std::getenv("PARLAP_BENCH_JSON");
  if (path == nullptr || *path == '\0') return false;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "parlap bench: cannot open " << path << " for writing\n";
    return false;
  }
  write(out);
  written_ = true;
  std::cerr << "parlap bench: wrote " << cases_.size() << " case(s) to "
            << path << "\n";
  return true;
}

}  // namespace parlap::bench
