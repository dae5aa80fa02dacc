// Shared pieces of the end-to-end benchmark driver: a span recorder for
// the traced run, order statistics, the independent answer check, and
// the result record the driver prints as one JSON object.
//
// Everything here sits outside the library: spans are taken around
// calls into parlap's public functions, and the answer check multiplies
// by the Laplacian straight from the input edge list, never through the
// solver's own operator.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/multigraph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds on the process-wide trace clock (0 at first use).
double trace_now();

// --- Order statistics ------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest of p99.9/p99/p95/p90/p75 that still has at least ten
/// samples above it, or the maximum when the set is too small for any.
struct Tail {
  double value = 0.0;
  std::string label;  ///< "p99", ..., or "max"
};
Tail tail(const std::vector<double>& v);

// --- Host noise ------------------------------------------------------------

/// CPU time the hypervisor gave to other tenants ("steal" in /proc/stat),
/// summed over CPUs, in seconds; 0 where the kernel does not report it.
double host_steal_seconds();

/// The host's CPU steal rate (stolen CPU-seconds per second) since
/// construction.
class StealMeter {
 public:
  StealMeter() : t0_(Clock::now()), s0_(host_steal_seconds()) {}
  [[nodiscard]] double rate() const {
    const double dt = since(t0_);
    return dt > 0.0 ? (host_steal_seconds() - s0_) / dt : 0.0;
  }

 private:
  Clock::time_point t0_;
  double s0_;
};

/// Indices of the samples taken while the host stole the least CPU: the
/// quieter half, rounded up, in sample order. On a shared host, bursts
/// of steal by other tenants slow a run's samples unevenly; timings are
/// reduced over the quieter half so that the bursts do not decide them.
std::vector<std::size_t> quiet_half(const std::vector<double>& steal_rates);

/// `values` at `keep`.
std::vector<double> pick(const std::vector<double>& values,
                         const std::vector<std::size_t>& keep);

// --- Spans -----------------------------------------------------------------

/// One timed interval. The layer is the part of `name` before ':'.
struct Span {
  std::string name;
  double start = 0.0;  ///< trace_now() seconds
  double end = 0.0;
  int parent = -1;     ///< index into the tracer's span list
  std::int64_t request = -1;  ///< serve request id, -1 elsewhere
};

/// In-memory span recorder. Disabled, every call is a no-op; enabled,
/// spans are kept until the run ends and then written out.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string& name);
  void close(int id);

  /// Records a finished interval under `parent` (-1 = innermost open).
  int add(const std::string& name, double start, double end, int parent = -1,
          std::int64_t request = -1);

  /// Lays `durations` end to end from `start`, as children of `parent`.
  void add_sequence(
      double start,
      const std::vector<std::pair<std::string, double>>& durations,
      int parent);

  /// Per-layer self time in milliseconds: each span's duration minus the
  /// part of it its children cover, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Writes the spans as Chrome trace events (chrome://tracing, Perfetto).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around a call into one layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name)
      : t_(t), id_(t.enabled() ? t.open(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// --- Independent answer check ----------------------------------------------

/// ||L x - b_p|| / ||b_p||, where L is applied from the edge list of the
/// input graph and b_p is b with each connected component's mean removed
/// (the solvable part, as every parlap solver reports it). Components
/// come from a union-find over the same edge list.
class AnswerCheck {
 public:
  explicit AnswerCheck(const parlap::Multigraph& g);
  [[nodiscard]] double residual(std::span<const double> b,
                                std::span<const double> x) const;

 private:
  const parlap::Multigraph& g_;
  std::vector<std::int64_t> component_;
  std::int64_t components_ = 0;
};

// --- Result record ---------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 1;
  std::string stat;  ///< how value was reduced ("median", "sum", "p99", ...)
};

/// Everything one run measured; printed as the driver's JSON output.
struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, Metric> metrics;
  /// Deterministic work counts; must repeat exactly for a given seed.
  std::map<std::string, std::int64_t> counts;
  std::map<std::string, std::string> host;
  std::map<std::string, double> self_ms;
  std::string trace_file;

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 1, const std::string& stat = "value") {
    metrics[name] = Metric{value, unit, samples, stat};
  }
  /// Counts one attempted operation, failed when `ok` is false.
  void attempt(bool ok, const std::string& what);
  /// Records a count; a second call with a different value is a failure
  /// (the count did not repeat within the run).
  void count(const std::string& name, std::int64_t value);

  [[nodiscard]] std::string to_json() const;
};

}  // namespace perfbench
