#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <omp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "linalg/kernels/kernels.hpp"
#include "linalg/kernels/numa.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "parallel/for_each.hpp"
#include "service/json.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace parlap::service {

namespace {

// ---------------------------------------------------------------------------
// Wire-format helpers: tiny append-style JSON writing. The server emits
// flat one-line objects, so a full writer (bench/harness JsonWriter) is
// more machinery than the job needs — and src/service deliberately does
// not depend on the bench tree.
// ---------------------------------------------------------------------------

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        // Control chars must be escaped; high bytes are escaped too so
        // an error message echoing hostile input stays valid UTF-8.
        if (static_cast<unsigned char>(c) < 0x20 ||
            static_cast<unsigned char>(c) >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;  // JSON has no inf/nan
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

std::string hex_hash(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// {"count":N,"mean":x,"p50":x,"p95":x,"p99":x} from a registry histogram.
void append_histogram_digest(std::string& out, const char* key,
                             const obs::LatencyHistogram& h) {
  out += '"';
  out += key;
  out += "\":{\"count\":";
  out += std::to_string(h.count());
  out += ",\"mean\":";
  append_json_number(out, h.mean_seconds());
  out += ",\"p50\":";
  append_json_number(out, h.percentile_seconds(0.50));
  out += ",\"p95\":";
  append_json_number(out, h.percentile_seconds(0.95));
  out += ",\"p99\":";
  append_json_number(out, h.percentile_seconds(0.99));
  out += '}';
}

/// The stats "window" block and the windowed instruments report this
/// span (docs/SERVING.md documents the 60s contract).
constexpr std::uint64_t kStatsWindowNs = 60'000'000'000ull;

/// Same shape as append_histogram_digest, from a window digest.
void append_window_digest(std::string& out, const char* key,
                          const obs::WindowDigest& d) {
  out += '"';
  out += key;
  out += "\":{\"count\":";
  out += std::to_string(d.count);
  out += ",\"mean\":";
  append_json_number(out, d.mean);
  out += ",\"p50\":";
  append_json_number(out, d.p50);
  out += ",\"p95\":";
  append_json_number(out, d.p95);
  out += ",\"p99\":";
  append_json_number(out, d.p99);
  out += '}';
}

void set_nonblocking_cloexec(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structs
// ---------------------------------------------------------------------------

/// Per-connection state. Owned and touched by the I/O thread only;
/// workers refer to sessions by id.
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

struct SolveServer::PendingJob {
  std::uint64_t session_id = 0;
  std::uint64_t request_id = 0;
  SolveJob job;
  std::size_t bytes = 0;  ///< request line size, held until completion
  std::uint64_t enqueue_ns = 0;
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
  /// Rolling last-60s views the stats window block reads; fed next to
  /// the lifetime instruments above on the same record points.
  obs::WindowedHistogram solve_window{};
  obs::WindowedHistogram queue_wait_window{};
  obs::WindowedCounter completed_window{};
  obs::WindowedCounter shed_window{};

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
  PARLAP_CHECK_MSG(options_.workers >= 1,
                   "SolveServer needs at least one worker, got "
                       << options_.workers);
  PARLAP_CHECK_MSG(!options_.socket_path.empty() || options_.tcp_port >= 0,
                   "SolveServer needs a unix socket path or a TCP port");
  EngineOptions eo;
  eo.workers = 1;  // the server owns the worker pool; run_one is per-thread
  eo.cache_budget_entries = options_.cache_budget_entries;
  eo.graph_cache_limit = options_.graph_cache_limit;
  eo.simd = options_.simd;
  eo.numa = options_.numa;
  eo.precision = options_.precision;
  engine_ = std::make_unique<SolveEngine>(eo);
  // The wake pipe exists for the object's whole life so request_drain()
  // is safe to call from a signal handler at any time.
  int fds[2];
  PARLAP_CHECK(::pipe2(fds, O_NONBLOCK | O_CLOEXEC) == 0);
  wake_r_ = fds[0];
  wake_w_ = fds[1];
}

SolveServer::~SolveServer() {
  // Abort path (serve() never ran or threw): stop workers, drop state.
  {
    const std::scoped_lock lock(queue_mutex_);
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
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
  started_ = true;
  if (event_log_.enabled()) {
    std::string ev = "{\"event\":\"server_start\",\"ts\":";
    append_json_number(ev, obs::unix_now_seconds());
    ev += ",\"workers\":";
    ev += std::to_string(options_.workers);
    ev += ",\"socket\":";
    append_json_string(ev, options_.socket_path);
    ev += ",\"tcp_port\":";
    ev += std::to_string(tcp_port_);
    ev += '}';
    event_log_.append(ev);
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
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
// Worker pool
// ---------------------------------------------------------------------------

void SolveServer::worker_main() {
  // Throughput mode, mirroring SolveEngine's batch pool: with several
  // workers each solve runs single-threaded so N workers use N threads.
  std::optional<SerialScope> serial;
  if (options_.workers > 1) {
    omp_set_num_threads(1);
    serial.emplace();
  }
  while (true) {
    PendingJob pj;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [&] { return stop_workers_ || !rr_order_.empty(); });
      if (stop_workers_) return;
      // Round-robin fairness: take ONE job from the head session, then
      // rotate it to the back if it still has work.
      const std::uint64_t sid = rr_order_.front();
      rr_order_.pop_front();
      std::deque<PendingJob>& dq = session_queues_[sid];
      pj = std::move(dq.front());
      dq.pop_front();
      if (dq.empty()) {
        session_queues_.erase(sid);
      } else {
        rr_order_.push_back(sid);
      }
      --queued_jobs_;
      ++in_flight_;
      metrics_->queue_depth.set(static_cast<std::int64_t>(queued_jobs_));
    }

    const double queue_seconds =
        static_cast<double>(steady_now_ns() - pj.enqueue_ns) * 1e-9;
    metrics_->queue_wait_seconds.record_seconds(queue_seconds);
    metrics_->queue_wait_window.record_seconds(queue_seconds);
    JobResult result;
    {
      // Every span this request touches — serve.solve here plus the
      // engine/cache/solver spans under run_one — picks the request id
      // up from the scope as a "request_id" arg.
      const obs::RequestIdScope rid_scope(pj.request_id);
      PARLAP_TRACE_SPAN_N(span, "serve.solve", "serve");
      span.arg("queue_ms", queue_seconds * 1e3);
      result = engine_->run_one(pj.job);
      span.arg("ok", result.ok ? 1.0 : 0.0);
    }
    metrics_->solve_seconds.record_seconds(result.wall_seconds);
    metrics_->solve_window.record_seconds(result.wall_seconds);
    metrics_->completed.add();
    metrics_->completed_window.add();

    std::string line = "{\"type\":\"result\",\"id\":";
    append_json_string(line, result.id);
    line += ",\"request_id\":";
    line += std::to_string(pj.request_id);
    if (result.ok) {
      line += ",\"status\":\"ok\",\"cache_hit\":";
      line += result.cache_hit ? "true" : "false";
      line += ",\"converged\":";
      line += result.report.converged ? "true" : "false";
      line += ",\"iterations\":";
      line += std::to_string(result.report.iterations);
      line += ",\"precision\":\"";
      line += precision_name(result.report.precision);
      line += "\",\"relative_residual\":";
      append_json_number(line, result.report.relative_residual);
      line += ",\"solve_seconds\":";
      append_json_number(line, result.report.solve_seconds);
      line += ",\"wall_seconds\":";
      append_json_number(line, result.wall_seconds);
      line += ",\"queue_seconds\":";
      append_json_number(line, queue_seconds);
      line += ",\"timings\":{\"queue_wait_ms\":";
      append_json_number(line, queue_seconds * 1e3);
      line += ",\"cache\":\"";
      line += result.cache_hit ? "hit" : "miss";
      line += "\",\"build_ms\":";
      append_json_number(line, result.build_seconds * 1e3);
      line += ",\"solve_ms\":";
      append_json_number(line, result.report.solve_seconds * 1e3);
      // Refinement breakdown: outer fp64 refinement iterations and the
      // escalation rounds (fp32 -> fp64 rebuilds) this solve needed.
      line += ",\"refinement_iterations\":";
      line += std::to_string(result.report.iterations);
      line += ",\"escalations\":";
      line += std::to_string(result.report.escalations);
      line += "},\"solution_hash\":\"";
      line += hex_hash(result.solution_hash);
      line += "\"}";
    } else {
      line += ",\"status\":\"error\",\"error\":";
      append_json_string(line, result.error);
      line += '}';
    }

    // Slow-request journal: every completed solve at or past the
    // --slow-ms wall threshold (0 = all) gets one JSONL event.
    if (event_log_.enabled() && result.wall_seconds * 1e3 >= options_.slow_ms) {
      std::string ev = "{\"event\":\"request\",\"ts\":";
      append_json_number(ev, obs::unix_now_seconds());
      ev += ",\"request_id\":";
      ev += std::to_string(pj.request_id);
      ev += ",\"id\":";
      append_json_string(ev, result.id);
      ev += ",\"session\":";
      ev += std::to_string(pj.session_id);
      ev += ",\"status\":\"";
      ev += result.ok ? "ok" : "error";
      ev += "\",\"cache\":\"";
      ev += result.cache_hit ? "hit" : "miss";
      ev += "\",\"queue_wait_ms\":";
      append_json_number(ev, queue_seconds * 1e3);
      ev += ",\"build_ms\":";
      append_json_number(ev, result.build_seconds * 1e3);
      ev += ",\"solve_ms\":";
      append_json_number(ev, result.report.solve_seconds * 1e3);
      ev += ",\"wall_ms\":";
      append_json_number(ev, result.wall_seconds * 1e3);
      if (!result.ok) {
        ev += ",\"error\":";
        append_json_string(ev, result.error);
      }
      ev += '}';
      event_log_.append(ev);
    }

    // Publish the result BEFORE releasing the in-flight slot: once
    // in_flight_ reads zero, every response is already visible to the
    // delivery pass, so a drain can never race past the last line.
    {
      const std::scoped_lock lock(results_mutex_);
      completed_.push_back(CompletedJob{pj.session_id, std::move(line)});
    }
    {
      const std::scoped_lock lock(queue_mutex_);
      --in_flight_;
      queued_bytes_ -= pj.bytes;
      metrics_->queued_bytes.set(static_cast<std::int64_t>(queued_bytes_));
    }
    completed_count_.fetch_add(1, std::memory_order_relaxed);
    wake();
  }
}

// ---------------------------------------------------------------------------
// I/O loop
// ---------------------------------------------------------------------------

void SolveServer::serve() {
  PARLAP_CHECK_MSG(started_, "SolveServer::serve before start");
  std::vector<pollfd> fds;
  while (true) {
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
    {
      const std::scoped_lock lock(queue_mutex_);
      stop_workers_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  if (event_log_.enabled()) {
    std::string ev = "{\"event\":\"drain_complete\",\"ts\":";
    append_json_number(ev, obs::unix_now_seconds());
    ev += ",\"completed\":";
    ev += std::to_string(completed_count_.load(std::memory_order_relaxed));
    ev += '}';
    event_log_.append(ev);
  }
}

void SolveServer::begin_drain() {
  draining_ = true;
  if (event_log_.enabled()) {
    std::size_t depth = 0;
    std::size_t inflight = 0;
    {
      const std::scoped_lock lock(queue_mutex_);
      depth = queued_jobs_;
      inflight = in_flight_;
    }
    std::string ev = "{\"event\":\"drain_begin\",\"ts\":";
    append_json_number(ev, obs::unix_now_seconds());
    ev += ",\"queued\":";
    ev += std::to_string(depth);
    ev += ",\"in_flight\":";
    ev += std::to_string(inflight);
    ev += '}';
    event_log_.append(ev);
  }
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
  {
    const std::scoped_lock lock(queue_mutex_);
    if (queued_jobs_ != 0 || in_flight_ != 0) return false;
  }
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
    s->id = next_session_id_++;
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
            metrics_->errors.add();
            respond(s,
                    "{\"type\":\"error\",\"status\":\"error\",\"error\":"
                    "\"request line exceeds " +
                        std::to_string(options_.max_line_bytes) +
                        " bytes\"}");
          } else {
            handle_line(s, line);
          }
          if (s.broken) return;
        }
        if (s.rbuf.size() > options_.max_line_bytes) {
          metrics_->errors.add();
          respond(s,
                  "{\"type\":\"error\",\"status\":\"error\",\"error\":"
                  "\"request line exceeds " +
                      std::to_string(options_.max_line_bytes) + " bytes\"}");
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
    const std::scoped_lock lock(queue_mutex_);
    const auto it = session_queues_.find(s.id);
    if (it != session_queues_.end()) {
      for (const PendingJob& pj : it->second) {
        queued_bytes_ -= pj.bytes;
        --queued_jobs_;
        PARLAP_CHECK(s.pending > 0);
        --s.pending;
      }
      session_queues_.erase(it);
      rr_order_.erase(std::remove(rr_order_.begin(), rr_order_.end(), s.id),
                      rr_order_.end());
      metrics_->queue_depth.set(static_cast<std::int64_t>(queued_jobs_));
      metrics_->queued_bytes.set(static_cast<std::int64_t>(queued_bytes_));
    }
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
    metrics_->errors.add();
    std::string out = "{\"type\":\"error\",\"status\":\"error\",\"error\":";
    append_json_string(out, e.what());
    out += '}';
    respond(s, std::move(out));
    return;
  }

  const JsonValue* type_v = doc.find("type");
  std::string type = "solve";
  if (type_v != nullptr) {
    if (!type_v->is_string()) {
      metrics_->errors.add();
      respond(s,
              "{\"type\":\"error\",\"status\":\"error\",\"error\":"
              "\"type must be a string\"}");
      return;
    }
    type = type_v->as_string();
  }
  span.arg("solve", type == "solve" ? 1.0 : 0.0);

  if (type == "ping") {
    respond(s, "{\"type\":\"pong\",\"status\":\"ok\"}");
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
    const std::string text =
        obs::render_prometheus(obs::MetricsRegistry::global().snapshot());
    std::string out = "{\"type\":\"metrics\",\"status\":\"ok\""
                      ",\"content_type\":";
    append_json_string(out, obs::kPrometheusContentType);
    out += ",\"text\":";
    append_json_string(out, text);
    out += '}';
    respond(s, std::move(out));
    return;
  }
  if (type == "shutdown") {
    respond(s, "{\"type\":\"shutdown\",\"status\":\"ok\"}");
    request_drain();
    return;
  }
  if (type != "solve") {
    metrics_->errors.add();
    std::string out = "{\"type\":\"error\",\"status\":\"error\",\"error\":";
    append_json_string(out, "unknown request type '" + type +
                               "' (want solve, stats, metrics, ping, "
                               "shutdown)");
    out += '}';
    respond(s, std::move(out));
    return;
  }

  SolveJob job;
  try {
    job = parse_job_object(doc, "request",
                           "req" + std::to_string(s.requests),
                           /*allow_type_field=*/true);
  } catch (const std::exception& e) {
    metrics_->errors.add();
    std::string out = "{\"type\":\"error\",\"status\":\"error\"";
    // Correlate the schema error with the request when possible.
    const JsonValue* idv = doc.find("id");
    if (idv != nullptr && idv->is_string()) {
      out += ",\"id\":";
      append_json_string(out, idv->as_string());
    }
    out += ",\"error\":";
    append_json_string(out, e.what());
    out += '}';
    respond(s, std::move(out));
    return;
  }
  handle_solve(s, std::move(job), line.size(), rid);
}

void SolveServer::handle_solve(Session& s, SolveJob job,
                               std::size_t line_bytes,
                               std::uint64_t request_id) {
  if (draining_) {
    metrics_->rejected.add();
    std::string out = "{\"type\":\"result\",\"id\":";
    append_json_string(out, job.id);
    out += ",\"request_id\":";
    out += std::to_string(request_id);
    out += ",\"status\":\"rejected\",\"error\":\"server is draining\"}";
    respond(s, std::move(out));
    return;
  }
  std::size_t depth_seen = 0;
  {
    const std::scoped_lock lock(queue_mutex_);
    const bool over_depth = queued_jobs_ >= options_.max_queue_depth;
    const bool over_bytes =
        queued_bytes_ + line_bytes > options_.max_queued_bytes;
    if (over_depth || over_bytes) {
      depth_seen = queued_jobs_;
    } else {
      PendingJob pj;
      pj.session_id = s.id;
      pj.request_id = request_id;
      pj.bytes = line_bytes;
      pj.enqueue_ns = steady_now_ns();
      const std::string id = job.id;
      pj.job = std::move(job);
      std::deque<PendingJob>& dq = session_queues_[s.id];
      if (dq.empty()) rr_order_.push_back(s.id);
      dq.push_back(std::move(pj));
      ++queued_jobs_;
      queued_bytes_ += line_bytes;
      ++s.pending;
      metrics_->admitted.add();
      metrics_->queue_depth.set(static_cast<std::int64_t>(queued_jobs_));
      metrics_->queued_bytes.set(static_cast<std::int64_t>(queued_bytes_));
      queue_cv_.notify_one();
      return;
    }
  }
  // Shed load: answer immediately with a retry hint instead of letting
  // the backlog (and the client's tail latency) grow without bound.
  metrics_->shed.add();
  metrics_->shed_window.add();
  if (event_log_.enabled()) {
    std::string ev = "{\"event\":\"shed\",\"ts\":";
    append_json_number(ev, obs::unix_now_seconds());
    ev += ",\"request_id\":";
    ev += std::to_string(request_id);
    ev += ",\"id\":";
    append_json_string(ev, job.id);
    ev += ",\"queue_depth\":";
    ev += std::to_string(depth_seen);
    ev += '}';
    event_log_.append(ev);
  }
  std::string out = "{\"type\":\"result\",\"id\":";
  append_json_string(out, job.id);
  out += ",\"request_id\":";
  out += std::to_string(request_id);
  out += ",\"status\":\"overloaded\",\"error\":\"admission queue full\""
         ",\"retry_after_ms\":";
  out += std::to_string(options_.retry_after_ms);
  out += ",\"queue_depth\":";
  out += std::to_string(depth_seen);
  out += '}';
  respond(s, std::move(out));
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

std::string SolveServer::stats_response() {
  PARLAP_TRACE_SPAN("serve.stats", "serve");
  std::size_t depth = 0;
  std::size_t bytes = 0;
  std::size_t inflight = 0;
  {
    const std::scoped_lock lock(queue_mutex_);
    depth = queued_jobs_;
    bytes = queued_bytes_;
    inflight = in_flight_;
  }
  const FactorizationCache::Stats cache = engine_->cache_stats();
  const double hit_rate =
      cache.lookups() > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.lookups())
          : 0.0;

  std::string out = "{\"type\":\"stats\",\"status\":\"ok\"";
  out += ",\"uptime_seconds\":";
  append_json_number(
      out, static_cast<double>(steady_now_ns() - start_ns_) * 1e-9);
  out += ",\"draining\":";
  out += draining_ ? "true" : "false";
  out += ",\"workers\":";
  out += std::to_string(options_.workers);
  out += ",\"queue_limit\":";
  out += std::to_string(options_.max_queue_depth);
  out += ",\"queue_depth\":";
  out += std::to_string(depth);
  out += ",\"queued_bytes\":";
  out += std::to_string(bytes);
  out += ",\"in_flight\":";
  out += std::to_string(inflight);
  out += ",\"sessions\":";
  out += std::to_string(sessions_.size());
  // Config echo: black-box suites read the launch configuration from
  // here instead of hard-coding the daemon's flags.
  out += ",\"config\":{\"workers\":";
  out += std::to_string(options_.workers);
  out += ",\"queue_limit\":";
  out += std::to_string(options_.max_queue_depth);
  out += ",\"max_queued_bytes\":";
  out += std::to_string(options_.max_queued_bytes);
  out += ",\"max_line_bytes\":";
  out += std::to_string(options_.max_line_bytes);
  out += ",\"idle_timeout_ms\":";
  out += std::to_string(options_.idle_timeout_ms);
  out += ",\"retry_after_ms\":";
  out += std::to_string(options_.retry_after_ms);
  out += ",\"cache_budget_entries\":";
  out += std::to_string(options_.cache_budget_entries);
  out += ",\"graph_cache_limit\":";
  out += std::to_string(options_.graph_cache_limit);
  out += ",\"tcp_port\":";
  out += std::to_string(tcp_port_);
  out += ",\"socket\":";
  append_json_string(out, options_.socket_path);
  out += ",\"slow_ms\":";
  append_json_number(out, options_.slow_ms);
  out += ",\"event_log\":";
  append_json_string(out, options_.event_log_path);
  // Kernel dispatch + NUMA placement actually in effect (post-CPUID
  // clamp), so a dashboard can tell a scalar-forced daemon from an AVX2
  // host at a glance.
  out += ",\"simd_detected\":";
  append_json_string(out,
                     kernels::simd_level_name(kernels::detected_simd_level()));
  out += ",\"simd_active\":";
  append_json_string(out,
                     kernels::simd_level_name(kernels::active_simd_level()));
  out += ",\"numa\":";
  append_json_string(out,
                     kernels::numa_policy_name(kernels::active_numa_policy()));
  out += ",\"numa_nodes\":";
  out += std::to_string(kernels::numa_node_count());
  // Default precision mode for requests without their own field ("auto"
  // is echoed as spelled — it resolves per graph at solve time).
  out += ",\"precision\":";
  append_json_string(
      out, options_.precision.empty() ? "fp64" : options_.precision);
  out += '}';
  // Rolling last-60s view next to the lifetime digests below, so a
  // dashboard can tell "slow now" from "slow once, long ago".
  const obs::WindowDigest wsolve =
      metrics_->solve_window.digest(kStatsWindowNs);
  const obs::WindowDigest wqueue =
      metrics_->queue_wait_window.digest(kStatsWindowNs);
  const std::uint64_t wcompleted =
      metrics_->completed_window.sum(kStatsWindowNs);
  const std::uint64_t wshed = metrics_->shed_window.sum(kStatsWindowNs);
  // Divide (exact for powers of ten) instead of scaling by 1e-9 so the
  // 60s window serializes as "60", not "60.000000000000007".
  const double window_seconds = static_cast<double>(kStatsWindowNs) / 1e9;
  out += ",\"window\":{\"window_seconds\":";
  append_json_number(out, window_seconds);
  out += ",\"completed\":";
  out += std::to_string(wcompleted);
  out += ",\"shed\":";
  out += std::to_string(wshed);
  out += ",\"throughput_per_second\":";
  append_json_number(out, static_cast<double>(wcompleted) / window_seconds);
  out += ',';
  append_window_digest(out, "solve_seconds", wsolve);
  out += ',';
  append_window_digest(out, "queue_wait_seconds", wqueue);
  out += '}';
  out += ",\"counters\":{";
  out += "\"sessions\":" + std::to_string(metrics_->sessions.value());
  out += ",\"requests\":" + std::to_string(metrics_->requests.value());
  out += ",\"admitted\":" + std::to_string(metrics_->admitted.value());
  out += ",\"completed\":" + std::to_string(metrics_->completed.value());
  out += ",\"shed\":" + std::to_string(metrics_->shed.value());
  out += ",\"rejected\":" + std::to_string(metrics_->rejected.value());
  out += ",\"errors\":" + std::to_string(metrics_->errors.value());
  out += ",\"idle_reaped\":" + std::to_string(metrics_->idle_reaped.value());
  out += ",\"scrapes\":" + std::to_string(metrics_->scrapes.value());
  out += "},";
  append_histogram_digest(out, "solve_seconds", metrics_->solve_seconds);
  out += ',';
  append_histogram_digest(out, "queue_wait_seconds",
                          metrics_->queue_wait_seconds);
  out += ",\"cache\":{";
  out += "\"hits\":" + std::to_string(cache.hits);
  out += ",\"misses\":" + std::to_string(cache.misses);
  out += ",\"evictions\":" + std::to_string(cache.evictions);
  out += ",\"resident_count\":" + std::to_string(cache.resident_count);
  out += ",\"hit_rate\":";
  append_json_number(out, hit_rate);
  out += ",\"build_seconds\":";
  append_json_number(out, cache.build_seconds);
  out += ",\"single_flight_waits\":" +
         std::to_string(cache.single_flight_waits);
  out += "}}";
  return out;
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
