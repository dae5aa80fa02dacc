// Command-line parsing shared by parlap_cli, parlap_serve and parlap_top.
//
// Each tool takes its `--flag VALUE` pairs and bare switches out of one
// argument list, in any order, then refuses whatever is left. A value
// that looks like a flag ("--metrics" after "--event-log") is refused
// rather than swallowed; negative numbers ("-1") are values. Every
// malformed command line throws UsageError, which each tool's main()
// turns into exit code 2. Flags that more than one tool takes
// (--precision, --simd, --trace-out, --metrics) have one parser here.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/kernels/kernels.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/precision.hpp"

namespace parlap::tools {

/// Thrown for malformed command lines; main() prints usage and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  /// The arguments argv[first], ..., argv[argc - 1].
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Consumes `flag` if present (no value). Returns whether it was there.
  bool take_flag(const std::string& flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return false;
    args_.erase(it);
    return true;
  }

  /// Consumes `flag VALUE` if present; returns the value.
  std::optional<std::string> take_value(const std::string& flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return std::nullopt;
    const auto val = std::next(it);
    if (val == args_.end() ||
        (val->size() > 1 && (*val)[0] == '-' &&
         !std::isdigit(static_cast<unsigned char>((*val)[1])))) {
      throw UsageError("option " + flag + " needs a value");
    }
    std::string out = *val;
    args_.erase(it, std::next(val));
    return out;
  }

  double take_double(const std::string& flag, double fallback) {
    const auto v = take_value(flag);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const double d = std::stod(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return d;
    } catch (const std::exception&) {
      throw UsageError("option " + flag + ": '" + *v + "' is not a number");
    }
  }

  std::int64_t take_int(const std::string& flag, std::int64_t fallback) {
    const auto v = take_value(flag);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const std::int64_t i = std::stoll(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return i;
    } catch (const std::exception&) {
      throw UsageError("option " + flag + ": '" + *v + "' is not an integer");
    }
  }

  /// All options must have been consumed by now.
  void expect_empty() const {
    if (!args_.empty()) {
      throw UsageError("unrecognized option '" + args_.front() + "'");
    }
  }

 private:
  std::vector<std::string> args_;
};

/// `--precision fp64|fp32|auto` (default fp64).
inline Precision take_precision(Args& args) {
  const std::string value = args.take_value("--precision").value_or("fp64");
  const auto mode = parse_precision(value);
  if (!mode) {
    throw UsageError("--precision wants fp64|fp32|auto, got '" + value + "'");
  }
  return *mode;
}

/// `--simd scalar|avx2|avx512|auto`: sets the process-wide kernel level
/// when given (without it $PARLAP_SIMD, else CPUID, decides). A level
/// the host lacks clamps with a stderr note.
inline void take_simd(Args& args) {
  const auto value = args.take_value("--simd");
  if (!value) return;
  const auto level = kernels::parse_simd_level(*value);
  if (!level) {
    throw UsageError("--simd wants scalar|avx2|avx512|auto, got '" + *value +
                     "'");
  }
  kernels::set_simd_level(*level);
}

/// `--trace-out FILE` and `--metrics`. take() arms the tracer (and zeroes
/// the metrics registry, so the export covers this run alone); finish()
/// writes the trace file and prints the metrics table. Tracing stays
/// disabled — a compiled-in span is one predicted branch — unless
/// --trace-out is given.
struct ObsOptions {
  std::string trace_path;  ///< --trace-out FILE (empty: tracing off)
  bool metrics = false;    ///< --metrics: human summary table

  static ObsOptions take(Args& args) {
    ObsOptions obs;
    obs.trace_path = args.take_value("--trace-out").value_or("");
    obs.metrics = args.take_flag("--metrics");
    if (!obs.trace_path.empty()) {
      obs::Tracer::instance().clear();
      obs::Tracer::instance().enable();
    }
    if (obs.metrics) obs::MetricsRegistry::global().reset();
    return obs;
  }

  /// `tool` names the program in the stderr note.
  void finish(const char* tool) const {
    if (!trace_path.empty()) {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.disable();
      std::ofstream os(trace_path);
      if (!os.good()) {
        throw std::runtime_error("cannot open " + trace_path +
                                 " for writing");
      }
      tracer.write_chrome(os);
      std::cerr << tool << ": wrote " << tracer.event_count()
                << " trace event(s) to " << trace_path;
      if (tracer.dropped() > 0) {
        std::cerr << " (" << tracer.dropped()
                  << " dropped: per-thread buffers filled)";
      }
      std::cerr << "\n";
    }
    if (metrics) {
      std::cout << obs::render_metrics_table(
          obs::MetricsRegistry::global().snapshot());
    }
  }
};

}  // namespace parlap::tools
