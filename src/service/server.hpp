// SolveServer — the long-running network front end of the solve service.
//
// parlap_cli batch drains a JSONL file and exits; this is the same
// request shape promoted to a daemon: clients connect over a unix
// socket (and optionally loopback TCP), write newline-delimited JSON
// requests, and read newline-delimited JSON responses. Results STREAM —
// each job's result line is written the moment the job completes, so a
// client pipelining fifty requests sees answers trickle in instead of a
// batch-end dump. docs/SERVING.md is the protocol reference.
//
// Survival properties, in order of importance:
//
//   1. Bounded admission. Accepted-but-unserved work is capped by
//      max_queue_depth (queued jobs) and max_queued_bytes (request
//      bytes queued or executing). Past either limit a solve request is
//      shed immediately with {"status":"overloaded","retry_after_ms":N}
//      — the client hears "back off" in microseconds instead of
//      watching its socket stall while the queue grows without bound.
//   2. Per-client fairness. Each client is a session of the engine's
//      worker pool, which keeps a FIFO of its admitted jobs; workers
//      pick sessions round-robin and take ONE job per turn, so a client
//      that pipelines 500 requests shares the workers with the client
//      that sends one.
//   3. Graceful drain. SIGTERM (via request_drain(), which is
//      async-signal-safe) or a {"type":"shutdown"} request stops the
//      listeners, rejects NEW solve requests with {"status":"rejected"},
//      finishes every queued and in-flight job, flushes every response,
//      and returns from serve() — the daemon then exits 0.
//   4. Fault isolation. A malformed line, an oversized line, a client
//      that disconnects mid-request, or one that goes silent (idle
//      timeout) costs that session a structured error or a reap — never
//      the process, and never a leaked queue slot (a dead session's
//      queued jobs are removed and their bytes refunded).
//
// Telemetry: every layer below already feeds the PR 6 obs substrate;
// the server adds the serve.* span category and the parlap.serve.*
// metrics (docs/OBSERVABILITY.md), and answers {"type":"stats"} with
// live queue depth, p50/p95/p99 solve + queue-wait latency straight
// from the MetricsRegistry histograms (lifetime AND last-60s window),
// cache hit rates from FactorizationCache::Stats, and a config echo.
// The same listeners also speak just enough HTTP/1.1 to serve
// `GET /metrics` — the full registry in Prometheus text format — and a
// JSON `{"type":"metrics"}` verb returns the identical payload inline.
// Every admitted request carries a server-minted request id: echoed in
// its response next to a timing breakdown, attached as a span arg to
// every span the request touches (server, engine, cache, solver), and
// stamped on its slow-request event-log line (`--event-log`/`--slow-ms`).
//
// Threading: one I/O thread (the serve() caller) owns all sockets and
// session state. Each admitted request is a task of its client's session
// in the engine's worker pool that calls SolveEngine::run_one, so
// factorizations share the engine's single-flight LRU cache across
// clients. Tasks hand result lines over in a mutex-protected list, and
// the pool wakes the I/O thread through a self-pipe after each task.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot_window.hpp"
#include "service/solve_engine.hpp"

namespace parlap::service {

struct ServerOptions {
  /// Unix-domain listener path. Required unless tcp_port >= 0. Bound
  /// fresh at start(): a stale file from a dead daemon is unlinked; a
  /// live one fails the bind.
  std::string socket_path;
  /// Loopback TCP listener port; -1 disables, 0 picks a free port
  /// (read it back via bound_tcp_port()).
  int tcp_port = -1;
  /// The engine the requests run on: pool size (`workers`), cache
  /// budgets and the default precision for requests without their own
  /// "precision" field. Its settings are echoed in stats.config.
  /// block_width does not apply: every request is a width-1 panel.
  EngineOptions engine{};
  /// Admission limits: a solve request is shed when the queued-job
  /// count has reached max_queue_depth, or when admitting its line
  /// would push the bytes queued-or-executing past max_queued_bytes.
  /// (Depth 0 sheds everything — useful for backpressure tests.)
  std::size_t max_queue_depth = 256;
  std::size_t max_queued_bytes = std::size_t{8} << 20;
  /// A request line longer than this is answered with a structured
  /// error and discarded through its terminating newline.
  std::size_t max_line_bytes = std::size_t{1} << 20;
  /// Sessions with nothing queued, running, or unflushed that have
  /// neither sent a request nor been sent an answer for this long are
  /// reaped (0 = never).
  int idle_timeout_ms = 0;
  int retry_after_ms = 100;  ///< hint in shed-load responses
  /// JSONL event-log path ("" = off): lifecycle events plus one
  /// "request" event per completed solve at least slow_ms wall
  /// milliseconds (0 logs every completed solve). docs/SERVING.md
  /// documents the schema.
  std::string event_log_path;
  double slow_ms = 0.0;
  /// Directory "file:" graph specs may name ("" = refuse every file
  /// spec). A request's path, taken relative to this directory unless
  /// absolute, must resolve (symlinks and ".." expanded) to a regular
  /// file under it; the engine then opens the resolved path. Refusals
  /// never quote file contents.
  std::string graph_root{};
};

class SolveServer {
 public:
  explicit SolveServer(ServerOptions options);
  ~SolveServer();

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Binds the listeners (the engine's pool started with the server).
  /// Throws std::runtime_error when a socket cannot be bound.
  void start();

  /// Runs the I/O loop on the calling thread until a drain completes
  /// (SIGTERM -> request_drain(), or a shutdown request). Every admitted
  /// job has been answered and all sessions are closed before it returns.
  void serve();

  /// Initiates graceful drain. Async-signal-safe (atomic store plus a
  /// self-pipe write) and callable from any thread.
  void request_drain() noexcept;

  /// The TCP port actually bound (after start(); -1 when TCP is off).
  [[nodiscard]] int bound_tcp_port() const noexcept { return tcp_port_; }
  /// Jobs completed since start (tests poll this across drains).
  [[nodiscard]] std::uint64_t completed_jobs() const noexcept {
    return completed_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Session;
  struct CompletedJob;
  struct ServeMetrics;
  /// Lifetime readings of the instruments the stats "window" block
  /// reports: the window is the current reading minus window_'s base.
  struct WindowReading {
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    obs::MetricSample solve_seconds;
    obs::MetricSample queue_wait_seconds;
  };

  // --- I/O thread only -----------------------------------------------------
  void accept_ready(int listen_fd);
  void read_ready(Session& s);
  void handle_line(Session& s, const std::string& line);
  void handle_solve(Session& s, SolveJob job, std::size_t line_bytes,
                    std::uint64_t request_id);
  /// Samples the pool's queue counts into the queue gauges, which are
  /// read only through the registry.
  void sample_queue_gauges();
  /// Applies ServerOptions::graph_root to a "file:" graph spec: throws
  /// std::invalid_argument to refuse it, else rewrites it to the
  /// resolved path.
  void admit_graph_file(SolveJob& job) const;
  void respond_http(Session& s);
  [[nodiscard]] WindowReading read_window() const;
  [[nodiscard]] std::string stats_response();
  void respond(Session& s, std::string line);
  /// Counts an error and answers {"type":"error","status":"error",...},
  /// the reply to a line that is not a valid request; `id` (the
  /// request's id member) is echoed when it is a string.
  void respond_error(Session& s, std::string_view message,
                     const JsonValue* id = nullptr);
  void flush_session(Session& s);
  void close_session(std::uint64_t id);
  void deliver_completed();
  void reap_idle_sessions();
  void begin_drain();
  [[nodiscard]] bool drain_complete();

  // --- pool tasks ----------------------------------------------------------
  /// Solves one admitted request and queues its result line.
  void run_request(std::uint64_t session_id, std::uint64_t request_id,
                   const SolveJob& job, std::uint64_t enqueue_ns);

  void wake() noexcept;

  ServerOptions options_;
  std::filesystem::path graph_root_;  ///< resolved graph_root ("" = none)
  /// Its pool's tasks write completed_ and the wake pipe, so the
  /// destructor resets it (joining the pool) before anything else.
  std::unique_ptr<SolveEngine> engine_;
  ServeMetrics* metrics_ = nullptr;  ///< registry-owned instruments

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  bool started_ = false;
  bool draining_ = false;  ///< I/O thread only
  std::uint64_t start_ns_ = 0;
  /// One reading at start() and one per epoch, taken by the I/O loop.
  obs::SnapshotWindow<WindowReading> window_;  ///< I/O thread only

  /// Request ids are minted at admission on the I/O thread and ride
  /// every span (obs::RequestIdScope) and response of that request.
  std::uint64_t next_request_id_ = 1;  ///< I/O thread only
  obs::EventLog event_log_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;

  std::mutex results_mutex_;
  std::vector<CompletedJob> completed_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<std::uint64_t> completed_count_{0};
};

}  // namespace parlap::service
