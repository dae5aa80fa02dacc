// parlap_serve — network solve daemon over SolveServer.
//
// Binds a unix-domain socket (and optionally a loopback TCP port) and
// serves newline-delimited JSON solve requests — the `parlap_cli batch`
// job shape promoted to a long-running service with a shared
// factorization cache, bounded admission, per-client fairness, and
// graceful drain on SIGTERM/SIGINT or a {"type":"shutdown"} request.
// docs/SERVING.md is the protocol reference.
//
// Exit codes: 0 clean drain, 2 usage error, 3 startup/runtime failure.
#include <csignal>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/kernels/kernels.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"

namespace {

using namespace parlap;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitRuntime = 3;

constexpr const char* kUsage = R"(usage: parlap_serve --socket PATH [options]

Listeners (at least one required):
  --socket PATH          unix-domain socket path
  --tcp PORT             loopback TCP port (0 picks a free port)

Capacity:
  --workers N            solver worker threads (default 1)
  --queue-limit N        max queued jobs before shedding (default 256)
  --max-queued-bytes B   max request bytes queued or executing (default 8 MiB)
  --max-line-bytes B     max request line length (default 1 MiB)
  --idle-timeout-ms T    reap sessions with no traffic either way this long
                         (default 0 = never)
  --retry-after-ms T     hint in overloaded responses (default 100)
  --cache-budget E       factorization cache budget in edge entries (0 = off)
  --graph-cache N        loaded-graph LRU bound (default 32)

Files:
  --graph-root DIR       serve "file:" graph specs, but only files that
                         resolve (symlinks and ".." expanded; relative
                         paths from DIR) to a regular file under DIR.
                         Without it every "file:" spec is refused.

Hardware:
  --simd LEVEL           apply-kernel dispatch: scalar|avx2|avx512|auto
                         (default $PARLAP_SIMD, else auto; results are
                         bit-identical at every level)
  --precision MODE       default factorization storage: fp64|fp32|auto
                         (default fp64; requests may override per job.
                         fp32 halves chain bytes and meets each job's
                         eps via fp64 iterative refinement)

Observability:
  --trace-out FILE       write a Chrome trace on exit (serve.* spans)
  --metrics              print the metrics table on exit
  --metrics-out FILE     write a final metrics JSON snapshot after drain
  --event-log FILE       append JSONL lifecycle + slow-request events
  --slow-ms T            event-log only solves >= T wall ms (default 0 = all)

Live telemetry (no flags needed): GET /metrics on either listener
returns the registry in Prometheus text format; {"type":"metrics"} and
{"type":"stats"} return it over the JSON protocol.

The daemon prints a "listening" line to stderr once ready and serves
until SIGTERM/SIGINT or a {"type":"shutdown"} request, then drains:
in-flight and queued jobs finish, new solves are rejected, responses
flush, and the process exits 0.  See docs/SERVING.md.
)";

service::SolveServer* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

std::int64_t parse_int_flag(std::vector<std::string>& args,
                            const std::string& flag, std::int64_t fallback) {
  const auto it = std::find(args.begin(), args.end(), flag);
  if (it == args.end()) return fallback;
  const auto val = std::next(it);
  if (val == args.end()) {
    throw std::invalid_argument("option " + flag + " needs a value");
  }
  std::int64_t out = 0;
  try {
    std::size_t used = 0;
    out = std::stoll(*val, &used);
    if (used != val->size()) throw std::invalid_argument(*val);
  } catch (const std::exception&) {
    throw std::invalid_argument("option " + flag + ": '" + *val +
                                "' is not an integer");
  }
  args.erase(it, std::next(val));
  return out;
}

std::string parse_string_flag(std::vector<std::string>& args,
                              const std::string& flag) {
  const auto it = std::find(args.begin(), args.end(), flag);
  if (it == args.end()) return "";
  const auto val = std::next(it);
  if (val == args.end()) {
    throw std::invalid_argument("option " + flag + " needs a value");
  }
  std::string out = *val;
  args.erase(it, std::next(val));
  return out;
}

double parse_double_flag(std::vector<std::string>& args,
                         const std::string& flag, double fallback) {
  const auto it = std::find(args.begin(), args.end(), flag);
  if (it == args.end()) return fallback;
  const auto val = std::next(it);
  if (val == args.end()) {
    throw std::invalid_argument("option " + flag + " needs a value");
  }
  double out = 0.0;
  try {
    std::size_t used = 0;
    out = std::stod(*val, &used);
    if (used != val->size()) throw std::invalid_argument(*val);
  } catch (const std::exception&) {
    throw std::invalid_argument("option " + flag + ": '" + *val +
                                "' is not a number");
  }
  args.erase(it, std::next(val));
  return out;
}

bool parse_bool_flag(std::vector<std::string>& args, const std::string& flag) {
  const auto it = std::find(args.begin(), args.end(), flag);
  if (it == args.end()) return false;
  args.erase(it);
  return true;
}

int run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (parse_bool_flag(args, "--help") || parse_bool_flag(args, "-h")) {
    std::cout << kUsage;
    return kExitOk;
  }

  service::ServerOptions opt;
  service::EngineOptions& engine = opt.engine;
  opt.socket_path = parse_string_flag(args, "--socket");
  opt.tcp_port = static_cast<int>(parse_int_flag(args, "--tcp", -1));
  engine.workers = static_cast<int>(parse_int_flag(args, "--workers", 1));
  opt.max_queue_depth = static_cast<std::size_t>(
      parse_int_flag(args, "--queue-limit", 256));
  opt.max_queued_bytes = static_cast<std::size_t>(parse_int_flag(
      args, "--max-queued-bytes",
      static_cast<std::int64_t>(opt.max_queued_bytes)));
  opt.max_line_bytes = static_cast<std::size_t>(parse_int_flag(
      args, "--max-line-bytes",
      static_cast<std::int64_t>(opt.max_line_bytes)));
  opt.idle_timeout_ms =
      static_cast<int>(parse_int_flag(args, "--idle-timeout-ms", 0));
  opt.retry_after_ms =
      static_cast<int>(parse_int_flag(args, "--retry-after-ms", 100));
  engine.cache_budget_entries =
      static_cast<EdgeId>(parse_int_flag(args, "--cache-budget", 0));
  engine.graph_cache_limit =
      static_cast<std::size_t>(parse_int_flag(args, "--graph-cache", 32));
  opt.event_log_path = parse_string_flag(args, "--event-log");
  opt.slow_ms = parse_double_flag(args, "--slow-ms", 0.0);
  const std::string simd = parse_string_flag(args, "--simd");
  engine.precision = parse_string_flag(args, "--precision");
  opt.graph_root = parse_string_flag(args, "--graph-root");
  const std::string trace_path = parse_string_flag(args, "--trace-out");
  const std::string metrics_out = parse_string_flag(args, "--metrics-out");
  const bool metrics = parse_bool_flag(args, "--metrics");
  if (!args.empty()) {
    throw std::invalid_argument("unrecognized option '" + args.front() + "'");
  }
  if (opt.socket_path.empty() && opt.tcp_port < 0) {
    throw std::invalid_argument("--socket PATH or --tcp PORT is required");
  }
  if (engine.workers < 1) {
    throw std::invalid_argument("--workers must be >= 1");
  }
  if (opt.tcp_port > 65535) {
    throw std::invalid_argument("--tcp port out of range");
  }
  if (opt.idle_timeout_ms < 0 || opt.retry_after_ms < 0) {
    throw std::invalid_argument("timeouts must be non-negative");
  }
  if (opt.slow_ms < 0) {
    throw std::invalid_argument("--slow-ms must be non-negative");
  }
  std::optional<kernels::SimdLevel> level;
  if (!simd.empty()) {
    level = kernels::parse_simd_level(simd);
    if (!level) {
      throw std::invalid_argument(
          "--simd wants scalar|avx2|avx512|auto, got '" + simd + "'");
    }
  }
  if (!engine.precision.empty() && !parse_precision(engine.precision)) {
    throw std::invalid_argument("--precision wants fp64|fp32|auto, got '" +
                                engine.precision + "'");
  }

  if (!trace_path.empty()) {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().enable();
  }
  if (metrics) obs::MetricsRegistry::global().reset();
  // Kernel dispatch is process-wide; without the flag $PARLAP_SIMD (else
  // CPUID) decides. An unsupported level clamps with a stderr note.
  if (level) kernels::set_simd_level(*level);

  service::SolveServer server(opt);
  server.start();

  // Drain cleanly on SIGTERM/SIGINT; a client vanishing mid-write must
  // surface as EPIPE on that socket, not kill the process.
  g_server = &server;
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::cerr << "parlap_serve: listening";
  if (!opt.socket_path.empty()) {
    std::cerr << " on " << opt.socket_path;
  }
  if (server.bound_tcp_port() >= 0) {
    std::cerr << (opt.socket_path.empty() ? " on" : " and")
              << " tcp port " << server.bound_tcp_port();
  }
  std::cerr << ", " << engine.workers << " worker(s), queue limit "
            << opt.max_queue_depth << ", precision "
            << (engine.precision.empty() ? "fp64" : engine.precision) << "\n"
            << std::flush;

  server.serve();
  g_server = nullptr;

  std::cerr << "parlap_serve: drained after " << server.completed_jobs()
            << " job(s), exiting\n";
  if (!trace_path.empty()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.disable();
    std::ofstream os(trace_path);
    if (!os.good()) {
      throw std::runtime_error("cannot open " + trace_path + " for writing");
    }
    tracer.write_chrome(os);
    std::cerr << "parlap_serve: wrote " << tracer.event_count()
              << " trace event(s) to " << trace_path << "\n";
  }
  if (!metrics_out.empty()) {
    // Final snapshot AFTER the drain: every task has finished, so the
    // registry is quiescent and the counts are exact.
    std::ofstream os(metrics_out);
    if (!os.good()) {
      throw std::runtime_error("cannot open " + metrics_out +
                               " for writing");
    }
    os << obs::render_metrics_json(obs::MetricsRegistry::global().snapshot())
       << "\n";
    std::cerr << "parlap_serve: wrote metrics snapshot to " << metrics_out
              << "\n";
  }
  if (metrics) {
    std::cout << obs::render_metrics_table(
        obs::MetricsRegistry::global().snapshot());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "parlap_serve: " << e.what() << "\n\n" << kUsage;
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "parlap_serve: " << e.what() << "\n";
    return kExitRuntime;
  }
}
