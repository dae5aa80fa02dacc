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

#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "args.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"

namespace {

using namespace parlap;
using tools::Args;
using tools::ObsOptions;
using tools::UsageError;

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

int run(int argc, char** argv) {
  Args args(argc, argv, 1);
  if (args.take_flag("--help") || args.take_flag("-h")) {
    std::cout << kUsage;
    return kExitOk;
  }

  service::ServerOptions opt;
  service::EngineOptions& engine = opt.engine;
  opt.socket_path = args.take_value("--socket").value_or("");
  opt.tcp_port = static_cast<int>(args.take_int("--tcp", -1));
  engine.workers = static_cast<int>(args.take_int("--workers", 1));
  opt.max_queue_depth =
      static_cast<std::size_t>(args.take_int("--queue-limit", 256));
  opt.max_queued_bytes = static_cast<std::size_t>(args.take_int(
      "--max-queued-bytes", static_cast<std::int64_t>(opt.max_queued_bytes)));
  opt.max_line_bytes = static_cast<std::size_t>(args.take_int(
      "--max-line-bytes", static_cast<std::int64_t>(opt.max_line_bytes)));
  opt.idle_timeout_ms = static_cast<int>(args.take_int("--idle-timeout-ms", 0));
  opt.retry_after_ms = static_cast<int>(args.take_int("--retry-after-ms", 100));
  engine.cache_budget_entries =
      static_cast<EdgeId>(args.take_int("--cache-budget", 0));
  engine.graph_cache_limit =
      static_cast<std::size_t>(args.take_int("--graph-cache", 32));
  opt.event_log_path = args.take_value("--event-log").value_or("");
  opt.slow_ms = args.take_double("--slow-ms", 0.0);
  // Kernel dispatch is process-wide; without the flag $PARLAP_SIMD (else
  // CPUID) decides.
  tools::take_simd(args);
  engine.precision = tools::take_precision(args);
  opt.graph_root = args.take_value("--graph-root").value_or("");
  const ObsOptions obs = ObsOptions::take(args);
  const std::string metrics_out =
      args.take_value("--metrics-out").value_or("");
  args.expect_empty();
  if (opt.socket_path.empty() && opt.tcp_port < 0) {
    throw UsageError("--socket PATH or --tcp PORT is required");
  }
  if (engine.workers < 1) {
    throw UsageError("--workers must be >= 1");
  }
  if (opt.tcp_port > 65535) {
    throw UsageError("--tcp port out of range");
  }
  if (opt.idle_timeout_ms < 0 || opt.retry_after_ms < 0) {
    throw UsageError("timeouts must be non-negative");
  }
  if (opt.slow_ms < 0) {
    throw UsageError("--slow-ms must be non-negative");
  }

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
            << precision_name(engine.precision) << "\n"
            << std::flush;

  server.serve();
  g_server = nullptr;

  std::cerr << "parlap_serve: drained after " << server.completed_jobs()
            << " job(s), exiting\n";
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
  obs.finish("parlap_serve");
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "parlap_serve: " << e.what() << "\n\n" << kUsage;
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "parlap_serve: " << e.what() << "\n";
    return kExitRuntime;
  }
}
