#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "linalg/kernels/kernels.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/json.hpp"
#include "support/check.hpp"
#include "support/json_writer.hpp"
#include "support/timer.hpp"

namespace parlap::service {

namespace {

// ---------------------------------------------------------------------------
// Wire-format helpers: response shapes more than one site writes.
// ---------------------------------------------------------------------------

/// {"type":TYPE,"status":"ok"}
std::string ok_line(const char* type) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.member("type", type);
  w.member("status", "ok");
  w.end_object();
  return out;
}

/// Opens a result line, {"type":"result","id":...,"request_id":...,
/// "status":STATUS; the caller adds members and closes it.
void begin_result(JsonWriter& w, std::string_view id,
                  std::uint64_t request_id, const char* status) {
  w.begin_object();
  w.member("type", "result");
  w.member("id", id);
  w.member("request_id", request_id);
  w.member("status", status);
}

/// "KEY":{"count":N,"mean":x,"p50":x,"p95":x,"p99":x}, the digest shape
/// of the stats lifetime and window blocks.
void write_digest(JsonWriter& w, std::string_view key,
                  const obs::MetricSample& d) {
  w.key(key);
  w.begin_object();
  w.member("count", d.count);
  w.member("mean", d.mean);
  w.member("p50", d.p50);
  w.member("p95", d.p95);
  w.member("p99", d.p99);
  w.end_object();
}

void set_nonblocking_cloexec(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structs
// ---------------------------------------------------------------------------

/// Per-connection state. Owned and touched by the I/O thread only; pool
/// tasks refer to sessions by id, which is also the session's id in the
/// engine's pool.
struct SolveServer::Session {
  int fd = -1;
  std::uint64_t id = 0;
  std::string rbuf;  ///< bytes up to the last incomplete line
  std::string wbuf;  ///< responses awaiting socket space
  bool discarding = false;  ///< inside an oversized line, skip to '\n'
  bool broken = false;      ///< close at the next sweep
  /// HTTP scrape state: a line starting "GET " / "HEAD " flips the
  /// session into header mode; the blank header terminator triggers the
  /// response and close_after_flush retires the connection once the
  /// bytes are out (HTTP clients expect Connection: close semantics,
  /// unlike the long-lived JSON sessions).
  bool http = false;
  bool http_head = false;
  bool close_after_flush = false;
  std::string http_target;
  std::uint64_t last_activity_ns = 0;
  std::uint64_t requests = 0;  ///< request lines parsed (default ids)
  std::size_t pending = 0;     ///< jobs admitted, result not yet queued to wbuf
};

struct SolveServer::CompletedJob {
  std::uint64_t session_id = 0;
  std::string line;
};

/// Registry-owned instruments (docs/OBSERVABILITY.md, parlap.serve.*).
/// Resolved once; the stats endpoint reads its percentiles from these
/// same histograms, so live stats and --metrics output agree by
/// construction.
struct SolveServer::ServeMetrics {
  obs::Counter& sessions;
  obs::Counter& requests;
  obs::Counter& admitted;
  obs::Counter& shed;
  obs::Counter& rejected;
  obs::Counter& errors;
  obs::Counter& completed;
  obs::Counter& idle_reaped;
  obs::Counter& scrapes;
  obs::Gauge& queue_depth;
  obs::Gauge& queued_bytes;
  obs::LatencyHistogram& solve_seconds;
  obs::LatencyHistogram& queue_wait_seconds;

  static ServeMetrics& get() {
    static ServeMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new ServeMetrics{reg.counter("parlap.serve.sessions"),
                              reg.counter("parlap.serve.requests"),
                              reg.counter("parlap.serve.admitted"),
                              reg.counter("parlap.serve.shed"),
                              reg.counter("parlap.serve.rejected"),
                              reg.counter("parlap.serve.errors"),
                              reg.counter("parlap.serve.completed"),
                              reg.counter("parlap.serve.idle_reaped"),
                              reg.counter("parlap.serve.scrapes"),
                              reg.gauge("parlap.serve.queue_depth"),
                              reg.gauge("parlap.serve.queued_bytes"),
                              reg.histogram("parlap.serve.solve_seconds"),
                              reg.histogram("parlap.serve.queue_wait_seconds")};
    }();
    return *m;
  }
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

SolveServer::SolveServer(ServerOptions options)
    : options_(std::move(options)),
      metrics_(&ServeMetrics::get()),
      event_log_(options_.event_log_path) {
  PARLAP_CHECK_MSG(!options_.socket_path.empty() || options_.tcp_port >= 0,
                   "SolveServer needs a unix socket path or a TCP port");
  if (!options_.graph_root.empty()) {
    std::error_code ec;
    graph_root_ = std::filesystem::canonical(options_.graph_root, ec);
    PARLAP_CHECK_MSG(!ec && std::filesystem::is_directory(graph_root_),
                     "graph root '" << options_.graph_root
                                    << "' is not a directory");
  }
  // The pool wakes the I/O loop after every task, once the task has left
  // the queue counts that drain_complete() reads. No task runs before
  // start(), so the pipe below is open before the first wake.
  engine_ = std::make_unique<SolveEngine>(options_.engine, [this] { wake(); });
  // The wake pipe exists for the object's whole life so request_drain()
  // is safe to call from a signal handler at any time.
  int fds[2];
  PARLAP_CHECK(::pipe2(fds, O_NONBLOCK | O_CLOEXEC) == 0);
  wake_r_ = fds[0];
  wake_w_ = fds[1];
}

SolveServer::~SolveServer() {
  // Join the pool first (finishing running tasks, dropping queued ones on
  // the abort path): its tasks write completed_ and the wake pipe.
  engine_.reset();
  for (auto& [id, s] : sessions_) {
    if (s->fd >= 0) ::close(s->fd);
  }
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (!options_.socket_path.empty() && started_) {
    ::unlink(options_.socket_path.c_str());
  }
  ::close(wake_r_);
  ::close(wake_w_);
}

void SolveServer::start() {
  PARLAP_CHECK_MSG(!started_, "SolveServer::start called twice");
  if (!options_.socket_path.empty()) {
    const std::string& path = options_.socket_path;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long (" +
                               std::to_string(path.size()) + " bytes): " +
                               path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
    if (unix_fd_ < 0) throw std::runtime_error("socket(AF_UNIX) failed");
    // A stale socket file from a dead daemon would fail the bind; probe
    // it with a connect — refused means stale, so unlink and claim it.
    if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int probe =
          ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      const bool live =
          probe >= 0 &&
          ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0;
      if (probe >= 0) ::close(probe);
      if (live) {
        throw std::runtime_error("socket " + path +
                                 " is in use by a live server");
      }
      ::unlink(path.c_str());
      if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throw std::runtime_error("cannot bind unix socket " + path + ": " +
                                 std::strerror(errno));
      }
    }
    if (::listen(unix_fd_, 128) != 0) {
      throw std::runtime_error("listen on " + path + " failed: " +
                               std::strerror(errno));
    }
  }
  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                       0);
    if (tcp_fd_ < 0) throw std::runtime_error("socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(tcp_fd_, 128) != 0) {
      throw std::runtime_error(
          "cannot bind loopback TCP port " +
          std::to_string(options_.tcp_port) + ": " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  start_ns_ = steady_now_ns();
  window_.tick(start_ns_, [this] { return read_window(); });
  started_ = true;
  event_log_.append("server_start", [&](JsonWriter& w) {
    w.member("workers", options_.engine.workers);
    w.member("socket", options_.socket_path);
    w.member("tcp_port", tcp_port_);
  });
}

void SolveServer::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_relaxed);
  wake();
}

void SolveServer::wake() noexcept {
  const char byte = 'w';
  // A full pipe already guarantees a pending wakeup; ignore the result.
  [[maybe_unused]] const ssize_t n = ::write(wake_w_, &byte, 1);
}

// ---------------------------------------------------------------------------
// Pool tasks
// ---------------------------------------------------------------------------

void SolveServer::run_request(std::uint64_t session_id,
                              std::uint64_t request_id, const SolveJob& job,
                              std::uint64_t enqueue_ns) {
  const double queue_seconds =
      static_cast<double>(steady_now_ns() - enqueue_ns) * 1e-9;
  metrics_->queue_wait_seconds.record_seconds(queue_seconds);
  JobResult result;
  {
    // Every span this request touches — serve.solve here plus the
    // engine/cache/solver spans under run_one — picks the request id
    // up from the scope as a "request_id" arg.
    const obs::RequestIdScope rid_scope(request_id);
    PARLAP_TRACE_SPAN_N(span, "serve.solve", "serve");
    span.arg("queue_ms", queue_seconds * 1e3);
    result = engine_->run_one(job);
    span.arg("ok", result.ok ? 1.0 : 0.0);
  }
  metrics_->solve_seconds.record_seconds(result.wall_seconds);
  metrics_->completed.add();

  std::string line;
  JsonWriter w(line);
  begin_result(w, result.id, request_id, result.ok ? "ok" : "error");
  if (result.ok) {
    w.member("cache_hit", result.cache_hit);
    w.member("converged", result.report.converged);
    w.member("iterations", result.report.iterations);
    w.member("precision", precision_name(result.report.precision));
    w.member("relative_residual", result.report.relative_residual);
    w.member("solve_seconds", result.report.solve_seconds);
    w.member("wall_seconds", result.wall_seconds);
    w.member("queue_seconds", queue_seconds);
    w.key("timings");
    w.begin_object();
    w.member("queue_wait_ms", queue_seconds * 1e3);
    w.member("cache", result.cache_hit ? "hit" : "miss");
    w.member("build_ms", result.build_seconds * 1e3);
    w.member("solve_ms", result.report.solve_seconds * 1e3);
    // Refinement breakdown: outer fp64 refinement iterations and the
    // escalation rounds (fp32 -> fp64 rebuilds) this solve needed.
    w.member("refinement_iterations", result.report.iterations);
    w.member("escalations", result.report.escalations);
    w.end_object();
    w.member("solution_hash", result.solution_hash_hex());
  } else {
    w.member("error", result.error);
  }
  w.end_object();

  // Slow-request journal: every completed solve at or past the
  // --slow-ms wall threshold (0 = all) gets one JSONL event.
  if (result.wall_seconds * 1e3 >= options_.slow_ms) {
    event_log_.append("request", [&](JsonWriter& e) {
      e.member("request_id", request_id);
      e.member("id", result.id);
      e.member("session", session_id);
      e.member("status", result.ok ? "ok" : "error");
      e.member("cache", result.cache_hit ? "hit" : "miss");
      e.member("queue_wait_ms", queue_seconds * 1e3);
      e.member("build_ms", result.build_seconds * 1e3);
      e.member("solve_ms", result.report.solve_seconds * 1e3);
      e.member("wall_ms", result.wall_seconds * 1e3);
      if (!result.ok) e.member("error", result.error);
    });
  }

  // The pool counts this task in flight until it returns, so once
  // drain_complete() reads zero in flight the line is already visible to
  // the delivery pass and a drain can never race past it.
  {
    const std::scoped_lock lock(results_mutex_);
    completed_.push_back(CompletedJob{session_id, std::move(line)});
  }
  completed_count_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// I/O loop
// ---------------------------------------------------------------------------

void SolveServer::serve() {
  PARLAP_CHECK_MSG(started_, "SolveServer::serve before start");
  std::vector<pollfd> fds;
  while (true) {
    // The poll below returns at least every 500 ms, so each epoch's
    // reading is at most that late.
    window_.tick(steady_now_ns(), [this] { return read_window(); });
    if (drain_requested_.load(std::memory_order_relaxed) && !draining_) {
      begin_drain();
    }
    deliver_completed();

    // Sweep sessions that broke (EOF, write error), finished flushing
    // after a protocol violation, or completed an HTTP exchange.
    std::vector<std::uint64_t> dead;
    for (const auto& [id, s] : sessions_) {
      if (s->broken && s->pending == 0) dead.push_back(id);
      // A broken session with jobs still in flight keeps its slot until
      // the results come back (and are dropped), so accounting stays
      // exact; read_ready already purged the queued jobs of a client
      // that disconnected.
      else if (s->close_after_flush && s->wbuf.empty() && s->pending == 0) {
        dead.push_back(id);
      }
    }
    for (const std::uint64_t id : dead) close_session(id);
    reap_idle_sessions();

    if (draining_ && drain_complete()) break;

    fds.clear();
    fds.push_back(pollfd{wake_r_, POLLIN, 0});
    if (!draining_ && unix_fd_ >= 0) {
      fds.push_back(pollfd{unix_fd_, POLLIN, 0});
    }
    if (!draining_ && tcp_fd_ >= 0) {
      fds.push_back(pollfd{tcp_fd_, POLLIN, 0});
    }
    const std::size_t first_session = fds.size();
    std::vector<std::uint64_t> order;
    for (const auto& [id, s] : sessions_) {
      if (s->broken) continue;
      short events = POLLIN;
      if (!s->wbuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{s->fd, events, 0});
      order.push_back(id);
    }

    const int timeout_ms = options_.idle_timeout_ms > 0
                               ? std::min(options_.idle_timeout_ms, 250)
                               : 500;
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("poll failed: ") +
                               std::strerror(errno));
    }
    if (rc <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_r_, buf, sizeof buf) > 0) {
      }
    }
    for (std::size_t i = 1; i < first_session; ++i) {
      if ((fds[i].revents & POLLIN) != 0) accept_ready(fds[i].fd);
    }
    for (std::size_t i = first_session; i < fds.size(); ++i) {
      const auto it = sessions_.find(order[i - first_session]);
      if (it == sessions_.end()) continue;
      Session& s = *it->second;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        s.broken = true;
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) flush_session(s);
      if ((fds[i].revents & POLLIN) != 0) read_ready(s);
    }
  }

  // Drained: everything answered and flushed. Tear down.
  {
    PARLAP_TRACE_SPAN("serve.drain", "serve");
    for (auto& [id, s] : sessions_) {
      if (s->fd >= 0) ::close(s->fd);
    }
    sessions_.clear();
  }
  sample_queue_gauges();
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  event_log_.append("drain_complete", [&](JsonWriter& w) {
    w.member("completed", completed_count_.load(std::memory_order_relaxed));
  });
}

void SolveServer::begin_drain() {
  draining_ = true;
  event_log_.append("drain_begin", [&](JsonWriter& w) {
    const SolveEngine::QueueStats q = engine_->queue_stats();
    w.member("queued", q.queued);
    w.member("in_flight", q.in_flight);
  });
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
}

bool SolveServer::drain_complete() {
  const SolveEngine::QueueStats q = engine_->queue_stats();
  if (q.queued != 0 || q.in_flight != 0) return false;
  {
    const std::scoped_lock lock(results_mutex_);
    if (!completed_.empty()) return false;
  }
  for (const auto& [id, s] : sessions_) {
    if (!s->wbuf.empty() && !s->broken) return false;
  }
  return true;
}

void SolveServer::accept_ready(int listen_fd) {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    set_nonblocking_cloexec(fd);
    auto s = std::make_unique<Session>();
    s->fd = fd;
    s->id = engine_->open_session();
    s->last_activity_ns = steady_now_ns();
    metrics_->sessions.add();
    sessions_.emplace(s->id, std::move(s));
  }
}

void SolveServer::read_ready(Session& s) {
  char buf[65536];
  bool saw_eof = false;
  while (true) {
    const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
    if (n > 0) {
      s.last_activity_ns = steady_now_ns();
      std::size_t begin = 0;
      const auto chunk = static_cast<std::size_t>(n);
      while (begin < chunk) {
        if (s.discarding) {
          // Inside an oversized line: drop bytes through its newline.
          const char* nl = static_cast<const char*>(
              std::memchr(buf + begin, '\n', chunk - begin));
          if (nl == nullptr) {
            begin = chunk;
          } else {
            begin = static_cast<std::size_t>(nl - buf) + 1;
            s.discarding = false;
          }
          continue;
        }
        const char* nl = static_cast<const char*>(
            std::memchr(buf + begin, '\n', chunk - begin));
        if (nl == nullptr) {
          s.rbuf.append(buf + begin, chunk - begin);
          begin = chunk;
        } else {
          const auto end = static_cast<std::size_t>(nl - buf);
          s.rbuf.append(buf + begin, end - begin);
          begin = end + 1;
          std::string line = std::move(s.rbuf);
          s.rbuf.clear();
          if (!line.empty() && line.back() == '\r') line.pop_back();
          if (line.size() > options_.max_line_bytes) {
            respond_error(s, "request line exceeds " +
                                 std::to_string(options_.max_line_bytes) +
                                 " bytes");
          } else {
            handle_line(s, line);
          }
          if (s.broken) return;
        }
        if (s.rbuf.size() > options_.max_line_bytes) {
          respond_error(s, "request line exceeds " +
                               std::to_string(options_.max_line_bytes) +
                               " bytes");
          s.rbuf.clear();
          s.rbuf.shrink_to_fit();
          s.discarding = true;
        }
      }
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    saw_eof = true;  // ECONNRESET and friends
    break;
  }
  if (saw_eof) {
    // Disconnect: free the client's queue slots immediately (an
    // in-flight job finishes and its result is dropped at delivery).
    s.broken = true;
    const std::size_t dropped = engine_->cancel(s.id);
    PARLAP_CHECK(s.pending >= dropped);
    s.pending -= dropped;
  }
}

void SolveServer::handle_line(Session& s, const std::string& line) {
  // HTTP header mode: swallow header lines until the blank terminator,
  // then answer the scrape. Checked before the blank-line skip below —
  // the blank line IS the HTTP signal.
  if (s.http) {
    if (s.close_after_flush) return;  // response sent; ignore trailing bytes
    if (line.find_first_not_of(" \t") == std::string::npos) respond_http(s);
    return;
  }
  if (line.compare(0, 4, "GET ") == 0 || line.compare(0, 5, "HEAD ") == 0) {
    s.http = true;
    s.http_head = line[0] == 'H';
    const std::size_t start = line.find(' ') + 1;
    const std::size_t end = line.find(' ', start);
    s.http_target = line.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    return;
  }
  if (line.find_first_not_of(" \t") == std::string::npos) return;
  ++s.requests;
  metrics_->requests.add();
  const std::uint64_t rid = next_request_id_++;
  const obs::RequestIdScope rid_scope(rid);
  PARLAP_TRACE_SPAN_N(span, "serve.request", "serve");

  JsonValue doc;
  try {
    doc = parse_json(line);
    if (!doc.is_object()) {
      throw std::invalid_argument("expected a JSON object");
    }
  } catch (const std::exception& e) {
    respond_error(s, e.what());
    return;
  }

  const JsonValue* type_v = doc.find("type");
  std::string type = "solve";
  if (type_v != nullptr) {
    if (!type_v->is_string()) {
      respond_error(s, "type must be a string");
      return;
    }
    type = type_v->as_string();
  }
  span.arg("solve", type == "solve" ? 1.0 : 0.0);

  if (type == "ping") {
    respond(s, ok_line("pong"));
    return;
  }
  if (type == "stats") {
    respond(s, stats_response());
    return;
  }
  if (type == "metrics") {
    // The exposition payload inline over the JSON protocol — identical
    // bytes to a GET /metrics scrape, for clients already connected.
    PARLAP_TRACE_SPAN("serve.scrape", "serve");
    metrics_->scrapes.add();
    sample_queue_gauges();
    std::string out;
    JsonWriter w(out);
    w.begin_object();
    w.member("type", "metrics");
    w.member("status", "ok");
    w.member("content_type", obs::kPrometheusContentType);
    w.member("text",
             obs::render_prometheus(obs::MetricsRegistry::global().snapshot()));
    w.end_object();
    respond(s, std::move(out));
    return;
  }
  if (type == "shutdown") {
    respond(s, ok_line("shutdown"));
    request_drain();
    return;
  }
  if (type != "solve") {
    respond_error(s, "unknown request type '" + type +
                         "' (want solve, stats, metrics, ping, shutdown)");
    return;
  }

  SolveJob job;
  try {
    job = parse_job_object(doc, "request",
                           "req" + std::to_string(s.requests),
                           /*allow_type_field=*/true);
    admit_graph_file(job);
  } catch (const std::exception& e) {
    // Correlate the schema error with the request when possible.
    respond_error(s, e.what(), doc.find("id"));
    return;
  }
  handle_solve(s, std::move(job), line.size(), rid);
}

void SolveServer::admit_graph_file(SolveJob& job) const {
  constexpr std::string_view kFile = "file:";
  if (job.graph.rfind(kFile, 0) != 0) return;
  if (graph_root_.empty()) {
    throw std::invalid_argument(
        "graph '" + job.graph +
        "' refused: this server reads no files (start it with --graph-root "
        "DIR to serve files under DIR)");
  }
  // The requested path is resolved first and checked second, so "..",
  // symlinks and absolute paths are judged by where they really lead.
  std::error_code ec;
  const std::filesystem::path resolved = std::filesystem::canonical(
      graph_root_ / job.graph.substr(kFile.size()), ec);
  const auto [root_end, unused] =
      std::mismatch(graph_root_.begin(), graph_root_.end(), resolved.begin(),
                    resolved.end());
  if (ec || root_end != graph_root_.end() ||
      !std::filesystem::is_regular_file(resolved, ec)) {
    throw std::invalid_argument("graph '" + job.graph +
                                "' refused: not a file under the graph root");
  }
  job.graph = std::string(kFile) + resolved.string();
}

void SolveServer::handle_solve(Session& s, SolveJob job,
                               std::size_t line_bytes,
                               std::uint64_t request_id) {
  if (draining_) {
    metrics_->rejected.add();
    std::string out;
    JsonWriter w(out);
    begin_result(w, job.id, request_id, "rejected");
    w.member("error", "server is draining");
    w.end_object();
    respond(s, std::move(out));
    return;
  }
  // Only this thread queues tasks, so the counts can only fall between
  // this check and the submit below: admission never overshoots.
  const SolveEngine::QueueStats q = engine_->queue_stats();
  if (q.queued < options_.max_queue_depth &&
      q.cost + line_bytes <= options_.max_queued_bytes) {
    engine_->submit(
        s.id,
        [this, session_id = s.id, request_id, job = std::move(job),
         enqueue_ns = steady_now_ns()] {
          run_request(session_id, request_id, job, enqueue_ns);
        },
        line_bytes);
    ++s.pending;
    metrics_->admitted.add();
    return;
  }
  // Shed load: answer immediately with a retry hint instead of letting
  // the backlog (and the client's tail latency) grow without bound.
  metrics_->shed.add();
  event_log_.append("shed", [&](JsonWriter& w) {
    w.member("request_id", request_id);
    w.member("id", job.id);
    w.member("queue_depth", q.queued);
  });
  std::string out;
  JsonWriter w(out);
  begin_result(w, job.id, request_id, "overloaded");
  w.member("error", "admission queue full");
  w.member("retry_after_ms", options_.retry_after_ms);
  w.member("queue_depth", q.queued);
  w.end_object();
  respond(s, std::move(out));
}

void SolveServer::sample_queue_gauges() {
  const SolveEngine::QueueStats q = engine_->queue_stats();
  metrics_->queue_depth.set(static_cast<std::int64_t>(q.queued));
  metrics_->queued_bytes.set(static_cast<std::int64_t>(q.cost));
}

void SolveServer::respond_http(Session& s) {
  // One request per connection, Connection: close — the minimal
  // HTTP/1.1 a Prometheus scraper or curl needs, embedded in the
  // line-oriented protocol handler (the request line and headers are
  // newline-delimited too).
  const std::uint64_t rid = next_request_id_++;
  const obs::RequestIdScope rid_scope(rid);
  PARLAP_TRACE_SPAN_N(span, "serve.scrape", "serve");
  metrics_->scrapes.add();

  std::string body;
  std::string status = "200 OK";
  std::string content_type = obs::kPrometheusContentType;
  const std::string& target = s.http_target;
  const bool is_metrics =
      target == "/metrics" || target.compare(0, 9, "/metrics?") == 0;
  if (is_metrics) {
    sample_queue_gauges();
    body = obs::render_prometheus(obs::MetricsRegistry::global().snapshot());
  } else if (target == "/stats" || target.compare(0, 7, "/stats?") == 0) {
    body = stats_response();
    body += '\n';
    content_type = "application/json";
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found (try /metrics or /stats)\n";
  }
  span.arg("status", status[0] == '2' ? 200.0 : 404.0);
  span.arg("bytes", static_cast<double>(body.size()));

  std::string resp = "HTTP/1.1 ";
  resp += status;
  resp += "\r\nContent-Type: ";
  resp += content_type;
  resp += "\r\nContent-Length: ";
  resp += std::to_string(body.size());
  resp += "\r\nConnection: close\r\n\r\n";
  if (!s.http_head) resp += body;
  s.wbuf += resp;
  s.close_after_flush = true;
  flush_session(s);
}

SolveServer::WindowReading SolveServer::read_window() const {
  return WindowReading{metrics_->completed.value(), metrics_->shed.value(),
                       obs::histogram_sample(metrics_->solve_seconds),
                       obs::histogram_sample(metrics_->queue_wait_seconds)};
}

std::string SolveServer::stats_response() {
  PARLAP_TRACE_SPAN("serve.stats", "serve");
  const std::uint64_t now_ns = steady_now_ns();
  const WindowReading now = read_window();
  const auto& [base_ns, base] = window_.base(now_ns);
  const FactorizationCache::Stats cache = engine_->cache_stats();
  const double hit_rate =
      cache.lookups() > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.lookups())
          : 0.0;

  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.member("type", "stats");
  w.member("status", "ok");
  w.member("uptime_seconds", static_cast<double>(now_ns - start_ns_) * 1e-9);
  w.member("draining", draining_);
  w.member("workers", options_.engine.workers);
  w.member("queue_limit", options_.max_queue_depth);
  const SolveEngine::QueueStats q = engine_->queue_stats();
  w.member("queue_depth", q.queued);
  w.member("queued_bytes", q.cost);
  w.member("in_flight", q.in_flight);
  w.member("sessions", sessions_.size());
  // Config echo: black-box suites read the launch configuration from
  // here instead of hard-coding the daemon's flags.
  w.key("config");
  w.begin_object();
  w.member("workers", options_.engine.workers);
  w.member("queue_limit", options_.max_queue_depth);
  w.member("max_queued_bytes", options_.max_queued_bytes);
  w.member("max_line_bytes", options_.max_line_bytes);
  w.member("idle_timeout_ms", options_.idle_timeout_ms);
  w.member("retry_after_ms", options_.retry_after_ms);
  w.member("cache_budget_entries", options_.engine.cache_budget_entries);
  w.member("graph_cache_limit", options_.engine.graph_cache_limit);
  w.member("tcp_port", tcp_port_);
  w.member("socket", options_.socket_path);
  w.member("slow_ms", options_.slow_ms);
  w.member("event_log", options_.event_log_path);
  // Kernel dispatch actually in effect (post-CPUID clamp), so a
  // dashboard can tell a scalar-forced daemon from an AVX2 host at a
  // glance.
  w.member("simd_detected",
           kernels::simd_level_name(kernels::detected_simd_level()));
  w.member("simd_active", kernels::simd_level_name(kernels::active_simd_level()));
  // Default precision mode for requests without their own field ("auto"
  // resolves per graph at solve time).
  w.member("precision", precision_name(options_.engine.precision));
  w.end_object();
  // Rolling last-60s view next to the lifetime digests below, so a
  // dashboard can tell "slow now" from "slow once, long ago": the same
  // instruments, less their reading at the start of the window.
  const std::uint64_t wcompleted = now.completed - base.completed;
  // Divide (exact for powers of ten) instead of scaling by 1e-9 so the
  // 60s window serializes as "60", not "60.000000000000007".
  const double window_seconds =
      static_cast<double>(decltype(window_)::kWindowNs) / 1e9;
  w.key("window");
  w.begin_object();
  w.member("window_seconds", window_seconds);
  w.member("completed", wcompleted);
  w.member("shed", now.shed - base.shed);
  // A rate over the span the window covers, which is less than
  // window_seconds for a daemon younger than that.
  const double covered_seconds = static_cast<double>(now_ns - base_ns) / 1e9;
  w.member("throughput_per_second",
           covered_seconds > 0.0
               ? static_cast<double>(wcompleted) / covered_seconds
               : 0.0);
  write_digest(w, "solve_seconds", obs::histogram_delta(now.solve_seconds,
                                                        base.solve_seconds));
  write_digest(w, "queue_wait_seconds",
               obs::histogram_delta(now.queue_wait_seconds,
                                    base.queue_wait_seconds));
  w.end_object();
  w.key("counters");
  w.begin_object();
  w.member("sessions", metrics_->sessions.value());
  w.member("requests", metrics_->requests.value());
  w.member("admitted", metrics_->admitted.value());
  w.member("completed", now.completed);
  w.member("shed", now.shed);
  w.member("rejected", metrics_->rejected.value());
  w.member("errors", metrics_->errors.value());
  w.member("idle_reaped", metrics_->idle_reaped.value());
  w.member("scrapes", metrics_->scrapes.value());
  w.end_object();
  write_digest(w, "solve_seconds", now.solve_seconds);
  write_digest(w, "queue_wait_seconds", now.queue_wait_seconds);
  w.key("cache");
  w.begin_object();
  w.member("hits", cache.hits);
  w.member("misses", cache.misses);
  w.member("evictions", cache.evictions);
  w.member("resident_count", cache.resident_count);
  w.member("hit_rate", hit_rate);
  w.member("build_seconds", cache.build_seconds);
  w.member("single_flight_waits", cache.single_flight_waits);
  w.end_object();
  w.end_object();
  return out;
}

void SolveServer::respond_error(Session& s, std::string_view message,
                                const JsonValue* id) {
  metrics_->errors.add();
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.member("type", "error");
  w.member("status", "error");
  if (id != nullptr && id->is_string()) w.member("id", id->as_string());
  w.member("error", message);
  w.end_object();
  respond(s, std::move(out));
}

void SolveServer::respond(Session& s, std::string line) {
  s.wbuf += line;
  s.wbuf += '\n';
  flush_session(s);
}

void SolveServer::flush_session(Session& s) {
  while (!s.wbuf.empty()) {
    const ssize_t n =
        ::send(s.fd, s.wbuf.data(), s.wbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      // Sending is activity too: a session whose solve outlasts the idle
      // timeout must not be reaped the moment its answer flushes.
      s.last_activity_ns = steady_now_ns();
      s.wbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    s.broken = true;  // EPIPE / ECONNRESET: the sweep closes it
    s.wbuf.clear();
    return;
  }
}

void SolveServer::deliver_completed() {
  std::vector<CompletedJob> batch;
  {
    const std::scoped_lock lock(results_mutex_);
    batch.swap(completed_);
  }
  for (CompletedJob& c : batch) {
    const auto it = sessions_.find(c.session_id);
    if (it == sessions_.end()) continue;  // client left; drop the line
    Session& s = *it->second;
    PARLAP_CHECK(s.pending > 0);
    --s.pending;
    if (!s.broken) respond(s, std::move(c.line));
  }
}

void SolveServer::close_session(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& s = *it->second;
  // Every queued job counts in `pending`, so a session with none has
  // nothing left in the admission queue to purge.
  PARLAP_CHECK(s.pending == 0);
  if (s.fd >= 0) ::close(s.fd);
  sessions_.erase(it);
}

void SolveServer::reap_idle_sessions() {
  if (options_.idle_timeout_ms <= 0) return;
  const std::uint64_t now = steady_now_ns();
  const auto limit_ns =
      static_cast<std::uint64_t>(options_.idle_timeout_ms) * 1000000ull;
  std::vector<std::uint64_t> idle;
  for (const auto& [id, s] : sessions_) {
    if (s->pending == 0 && s->wbuf.empty() && !s->broken &&
        now - s->last_activity_ns > limit_ns) {
      idle.push_back(id);
    }
  }
  for (const std::uint64_t id : idle) {
    metrics_->idle_reaped.add();
    close_session(id);
  }
}

}  // namespace parlap::service
