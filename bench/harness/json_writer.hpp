// Benchmark-harness reporting: the JSON bench report plus the shared
// run-metadata / warmup / repetition / aggregation logic used by every
// experiment binary (see EXPERIMENTS.md).
//
// Experiments keep printing their human-readable tables to stdout; when
// the environment variable PARLAP_BENCH_JSON names a file, the process
// additionally writes one machine-readable JSON document there on exit
// (via the BenchReporter singleton). scripts/run_benches.sh drives this
// to record a per-commit performance trajectory as BENCH_E*.json files.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/timer.hpp"

namespace parlap::bench {

// ---------------------------------------------------------------------------
// Timing aggregation
// ---------------------------------------------------------------------------

/// Summary of repeated timing samples (seconds). `median` averages the
/// middle pair for even counts; `stddev` is the sample (n-1) deviation,
/// zero for fewer than two samples.
struct TimingSummary {
  std::int64_t reps = 0;
  double median = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] TimingSummary summarize(std::span<const double> samples_s);

/// Runs `fn` `warmup` times untimed, then `reps` times timed, returning
/// the per-repetition wall-clock seconds.
template <typename Fn>
[[nodiscard]] std::vector<double> measure(int reps, int warmup, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps > 0 ? reps : 0));
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    fn();
    samples.push_back(t.seconds());
  }
  return samples;
}

// ---------------------------------------------------------------------------
// Run metadata
// ---------------------------------------------------------------------------

/// Per-process facts recorded with every report so a JSON file is
/// attributable to a commit, machine, and thread count.
struct RunMetadata {
  std::string commit;         // $PARLAP_GIT_COMMIT, else build-time value
  std::string timestamp_utc;  // ISO 8601, e.g. "2026-07-27T12:00:00Z"
  std::string hostname;
  std::string compiler;
  std::string build_type;
  int threads = 1;  // omp_get_max_threads() at collection time
  bool smoke = false;
  // Host facts for the meta.host block: CPU model/flags come from
  // $PARLAP_BENCH_CPU_MODEL / $PARLAP_BENCH_CPU_FLAGS (run_benches.sh
  // reads /proc/cpuinfo), node count from $PARLAP_BENCH_NUMA_NODES
  // (else 1); simd_detected/simd_active come straight from the dispatcher,
  // so a report shows which ISA produced its numbers.
  std::string cpu_model;
  std::string cpu_flags;
  int numa_nodes = 1;
  std::string simd_detected;
  std::string simd_active;
  // Precision mode the run was configured for ($PARLAP_BENCH_PRECISION,
  // default "fp64"). Recorded at the top of meta so
  // scripts/compare_benches.py can refuse to cross-compare an fp32 tree
  // against an fp64 baseline — the two are different workloads, not a
  // regression signal.
  std::string precision;
};

[[nodiscard]] RunMetadata collect_metadata();

/// True when PARLAP_SMOKE is set to a non-empty, non-"0" value; benches
/// shrink their sweeps so the whole suite finishes in seconds.
[[nodiscard]] bool smoke();

// ---------------------------------------------------------------------------
// BenchReporter
// ---------------------------------------------------------------------------

/// One recorded configuration of an experiment: a name, flat numeric
/// metrics, and optional raw timing samples (summarized on write).
struct BenchCase {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<double> times_s;
};

/// Accumulates BenchCases and writes the JSON document. Experiments use
/// the process-wide instance(); on exit it auto-writes to the path in
/// $PARLAP_BENCH_JSON when that variable is set.
class BenchReporter {
 public:
  BenchReporter() = default;
  ~BenchReporter();

  static BenchReporter& instance();

  void set_experiment(std::string id) { experiment_ = std::move(id); }

  void record(BenchCase c) { cases_.push_back(std::move(c)); }

  /// Convenience: record named metrics plus timing samples in one call.
  void record(std::string name,
              std::initializer_list<std::pair<const char*, double>> metrics,
              std::span<const double> times_s = {});

  /// Convenience for single-shot timings (reps = 1).
  void record_time(
      std::string name,
      std::initializer_list<std::pair<const char*, double>> metrics,
      double seconds);

  [[nodiscard]] std::size_t case_count() const { return cases_.size(); }

  void write(std::ostream& out) const;

  /// Writes to the $PARLAP_BENCH_JSON path if set and cases were
  /// recorded; returns true when a file was written.
  bool write_to_env_path();

 private:
  std::string experiment_ = "unnamed";
  std::vector<BenchCase> cases_;
  bool written_ = false;
};

}  // namespace parlap::bench
