// The serve workload: spawns parlap_serve daemons, drives them in a
// closed loop from a fixed seeded request sequence over a few
// unix-socket connections, then checks a sample of answers against
// in-process SolveEngine::run_one results of the same jobs.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/json.hpp"
#include "service/solve_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using parlap::service::JsonValue;
using parlap::service::SolveJob;

const std::vector<GraphSpec> kHotGraphs = {
    {"ws:512,6,0.1", ""}, {"grid2d:64", ""}, {"gnm:256,1024", ""}};
const GraphSpec kColdGraph = {"ws:1024,6,0.1", ""};
constexpr double kRequestsPerSecond = 50.0;  ///< sequence length per --seconds
constexpr int kColdEvery = 20;                ///< 5% cold misses
constexpr int kServeSetups = 5;
constexpr std::size_t kChunk = 100;  ///< completions per throughput sample
constexpr int kHashSamples = 12;
/// Factorization cache budget (fp64 entries): room for the hot graphs
/// (about 1.1M) and a couple of cold ones, so only cold entries are
/// evicted and the daemon's footprint stays flat.
constexpr const char* kCacheBudget = "2000000";
constexpr int kIoTimeoutMs = 60000;

/// One connection to the daemon, newline-delimited JSON both ways.
class Connection {
 public:
  Connection(const std::string& socket, double timeout_s) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + socket);
    }
    std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
    const auto t0 = Clock::now();
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (since(t0) > timeout_s) {
        throw std::runtime_error("cannot connect to " + socket);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  void send_line(const std::string& line) {
    std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t k = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) throw std::runtime_error("send to daemon failed");
      off += static_cast<std::size_t>(k);
    }
  }

  /// Reads what is available (call after poll() reports the fd readable).
  void read_some() {
    char buf[65536];
    ssize_t k = 0;
    do {
      k = ::read(fd_, buf, sizeof buf);
    } while (k < 0 && errno == EINTR);
    if (k <= 0) throw std::runtime_error("daemon closed the connection");
    in_.append(buf, static_cast<std::size_t>(k));
  }

  std::optional<std::string> next_line() {
    const auto nl = in_.find('\n');
    if (nl == std::string::npos) return std::nullopt;
    std::string line = in_.substr(0, nl);
    in_.erase(0, nl + 1);
    return line;
  }

  /// Sends one request and waits for its one-line answer.
  JsonValue request(const std::string& line) {
    send_line(line);
    for (;;) {
      if (auto l = next_line()) return parlap::service::parse_json(*l);
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, kIoTimeoutMs) <= 0) {
        throw std::runtime_error("daemon did not answer");
      }
      read_some();
    }
  }

 private:
  int fd_ = -1;
  std::string in_;
};

/// A parlap_serve process for the lifetime of this object.
class Daemon {
 public:
  Daemon(const Options& o, std::string socket) : socket_(std::move(socket)) {
    ::unlink(socket_.c_str());
    const std::string workers = std::to_string(o.threads);
    const std::string log = socket_ + ".log";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int null = ::open("/dev/null", O_RDWR);
      if (err >= 0) ::dup2(err, 2);
      if (null >= 0) {
        ::dup2(null, 0);
        ::dup2(null, 1);
      }
      ::execl(o.serve_binary.c_str(), o.serve_binary.c_str(), "--socket",
              socket_.c_str(), "--workers", workers.c_str(), "--cache-budget",
              kCacheBudget, static_cast<char*>(nullptr));
      std::_Exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

  /// Peak resident set (VmHWM) of the daemon so far, in MB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream is("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (is >> key) {
      if (key == "VmHWM:") {
        double kib = 0;
        is >> kib;
        return kib / 1024.0;
      }
      is.ignore(1 << 20, '\n');
    }
    return 0.0;
  }

  /// Asks for a graceful drain, then waits; kills after a grace period.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (since(t0) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

std::string solve_line(const SolveJob& job) {
  char eps[32];
  std::snprintf(eps, sizeof eps, "%.17g", job.eps);
  const std::string weights =
      job.weights.empty() ? "" : ",\"weights\":\"" + job.weights + "\"";
  return "{\"type\":\"solve\",\"id\":\"" + job.id + "\",\"graph\":\"" +
         job.graph + "\"" + weights + ",\"seed\":" + std::to_string(job.seed) +
         ",\"eps\":" + eps + ",\"rhs\":\"" + job.rhs +
         "\",\"project_rhs\":true}";
}

double number(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

std::string string_field(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

struct Reply {
  double sent = 0, received = 0;  ///< trace clock
  double latency_ms = 0;
  std::size_t chunk = 0;  ///< index of the chunk of answers it closed in
  std::string status;
  bool converged = false;
  std::int64_t request_id = -1, iterations = 0, escalations = 0;
  double queue_ms = 0, build_ms = 0, solve_ms = 0;
  bool cache_hit = false;
  std::string hash;
};

Reply parse_reply(const JsonValue& doc) {
  Reply r;
  r.status = string_field(doc, "status");
  if (const JsonValue* c = doc.find("converged"); c != nullptr && c->is_bool()) {
    r.converged = c->as_bool();
  }
  r.request_id = static_cast<std::int64_t>(number(doc, "request_id"));
  r.iterations = static_cast<std::int64_t>(number(doc, "iterations"));
  r.hash = string_field(doc, "solution_hash");
  if (const JsonValue* t = doc.find("timings"); t != nullptr && t->is_object()) {
    r.queue_ms = number(*t, "queue_wait_ms");
    r.build_ms = number(*t, "build_ms");
    r.solve_ms = number(*t, "solve_ms");
    r.escalations = static_cast<std::int64_t>(number(*t, "escalations"));
    r.cache_hit = string_field(*t, "cache") == "hit";
  }
  return r;
}

/// Spawns a daemon and answers one request per hot graph; returns the
/// seconds from spawn to the last answer.
double warm_up(const Options& o, std::unique_ptr<Daemon>& daemon, int round,
               Record& r) {
  const auto t0 = Clock::now();
  daemon = std::make_unique<Daemon>(o, "parlap-" + std::to_string(::getpid()) + ".sock");
  Connection c(daemon->socket(), 30.0);
  for (std::size_t h = 0; h < kHotGraphs.size(); ++h) {
    const SolveJob job = make_job(kHotGraphs[h], kGraphSeed,
                                  "warm" + std::to_string(round) + "-" + std::to_string(h));
    const Reply reply = parse_reply(c.request(solve_line(job)));
    r.attempt(reply.status == "ok" && reply.converged,
              "warm-up " + job.id + ": status " + reply.status);
  }
  return since(t0);
}

/// Sends requests [first, last) of `seq` in a closed loop, one in flight
/// per connection: a connection sends its next request only after the
/// previous answer arrived. Every kChunk answers close a chunk; its wall
/// time per answer goes to `chunk_ms` and the host's CPU steal rate
/// during it to `chunk_steal`.
void closed_loop(std::vector<std::unique_ptr<Connection>>& conns,
                 const std::vector<SolveJob>& seq, std::size_t first,
                 std::size_t last, std::vector<Reply>& replies,
                 std::vector<double>& chunk_ms, std::vector<double>& chunk_steal) {
  const std::size_t conns_n = conns.size();
  std::vector<std::optional<std::size_t>> inflight(conns_n);
  std::size_t next = first, done = 0;
  double chunk_t0 = trace_now();
  double chunk_s0 = host_steal_seconds();
  auto send_next = [&](std::size_t c) {
    if (next >= last) return;
    replies[next].sent = trace_now();
    inflight[c] = next;
    conns[c]->send_line(solve_line(seq[next++]));
  };
  for (std::size_t c = 0; c < conns_n; ++c) send_next(c);
  std::vector<pollfd> fds(conns_n);
  while (done < last - first) {
    for (std::size_t c = 0; c < conns_n; ++c) fds[c] = {conns[c]->fd(), POLLIN, 0};
    if (::poll(fds.data(), fds.size(), kIoTimeoutMs) <= 0) {
      throw std::runtime_error("serve sequence stalled");
    }
    for (std::size_t c = 0; c < conns_n; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      conns[c]->read_some();
      while (auto line = conns[c]->next_line()) {
        const double now = trace_now();
        if (!inflight[c]) throw std::runtime_error("unexpected line: " + *line);
        const std::size_t i = *inflight[c];
        const JsonValue doc = parlap::service::parse_json(*line);
        Reply& rep = replies[i];
        const double sent = rep.sent;
        rep = parse_reply(doc);
        rep.sent = sent;
        rep.received = now;
        rep.latency_ms = (now - sent) * 1e3;
        rep.chunk = chunk_ms.size();
        if (string_field(doc, "id") != seq[i].id) rep.status = "wrong-id";
        inflight[c].reset();
        if (++done % kChunk == 0) {
          const double steal = host_steal_seconds();
          chunk_ms.push_back((now - chunk_t0) * 1e3 / kChunk);
          chunk_steal.push_back((steal - chunk_s0) / (now - chunk_t0));
          chunk_t0 = now;
          chunk_s0 = steal;
        }
        send_next(c);
      }
    }
  }
}

}  // namespace

void run_serve(const Options& o, Record& r, Tracer& tr) {
  if (::chdir(o.run_dir.c_str()) != 0) {
    throw std::runtime_error("cannot enter run dir " + o.run_dir);
  }

  // The fixed request sequence: one request in every kColdEvery (at a
  // seeded offset) is a cold miss on a graph of its own; the rest
  // cycle through the hot set, each cycle in a seeded order. The hot
  // graphs' solve costs differ tenfold, so an even mix keeps every chunk
  // of answers the same amount of work.
  // Whole chunks per segment, at least one.
  const std::size_t n =
      kServeSetups * kChunk *
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(
                                   kRequestsPerSecond * o.seconds / kServeSetups / kChunk)));
  std::mt19937_64 rng(o.seed);
  const std::size_t cold_offset = rng() % kColdEvery;
  std::vector<bool> cold(n, false);
  std::vector<std::size_t> cold_ids;
  for (std::size_t i = cold_offset; i < n; i += kColdEvery) cold[i] = true;
  std::vector<SolveJob> seq;
  std::vector<int> hot_of(n, -1);
  const std::string tag = "s" + std::to_string(o.seed) + "-q";
  std::vector<int> cycle(kHotGraphs.size());
  std::size_t hot = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cold[i]) {
      // The k-th cold graph is the same in every run, so --seed does not
      // change how much the misses build.
      seq.push_back(make_job(kColdGraph, 1000003ull + cold_ids.size(), tag + std::to_string(i)));
      cold_ids.push_back(i);
    } else {
      if (hot % cycle.size() == 0) {
        for (std::size_t k = 0; k < cycle.size(); ++k) cycle[k] = static_cast<int>(k);
        for (std::size_t k = cycle.size() - 1; k > 0; --k) std::swap(cycle[k], cycle[rng() % (k + 1)]);
      }
      hot_of[i] = cycle[hot++ % cycle.size()];
      seq.push_back(make_job(kHotGraphs[static_cast<std::size_t>(hot_of[i])], kGraphSeed,
                             tag + std::to_string(i)));
    }
  }

  // The sequence runs in kServeSetups segments, each on a freshly
  // spawned and warmed daemon: how a daemon's threads land on the host's
  // cores moves its speed by a quarter from one process to the next, and
  // the medians below then span several daemons.
  std::vector<Reply> replies(n);
  std::vector<double> setup, setup_steal, daemon_rss, chunk_ms, chunk_rate;
  std::uint64_t hits = 0, misses = 0, single_flight = 0;
  double wall = 0.0;
  const std::size_t per = n / kServeSetups;
  for (int k = 0; k < kServeSetups; ++k) {
    std::unique_ptr<Daemon> daemon;
    {
      ScopedSpan span(tr, "service.server:warm_up");
      const StealMeter steal;
      setup.push_back(warm_up(o, daemon, k, r));
      setup_steal.push_back(steal.rate());
    }
    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t c = 0; c < static_cast<std::size_t>(o.threads); ++c) {
      conns.push_back(std::make_unique<Connection>(daemon->socket(), 10.0));
    }
    ScopedSpan span(tr, "bench:sequence");
    const auto t0 = Clock::now();
    closed_loop(conns, seq, k * per, (k + 1) * per, replies, chunk_ms, chunk_rate);
    wall += since(t0);
    for (std::size_t i = k * per; tr.enabled() && i < (k + 1) * per; ++i) {
      const Reply& rep = replies[i];
      const int id = tr.add("service.server:request", rep.sent, rep.received,
                            span.id(), rep.request_id);
      tr.add_sequence(rep.sent,
                      {{"service.engine:queue_wait", rep.queue_ms / 1e3},
                       {"service.factorization_cache:build", rep.build_ms / 1e3},
                       {"core.solver:solve", rep.solve_ms / 1e3}},
                      id);
    }
    const JsonValue stats = conns[0]->request("{\"type\":\"stats\"}");
    if (const JsonValue* cache = stats.find("cache")) {
      hits += static_cast<std::uint64_t>(number(*cache, "hits"));
      misses += static_cast<std::uint64_t>(number(*cache, "misses"));
      single_flight += static_cast<std::uint64_t>(number(*cache, "single_flight_waits"));
    }
    daemon_rss.push_back(daemon->peak_rss_mb());
  }

  std::vector<double> latency, queue, overhead, solve, miss_build;
  std::int64_t shed = 0, errors = 0, iterations = 0, escalations = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Reply& rep = replies[i];
    latency.push_back(rep.latency_ms);
    if (rep.status == "overloaded" || rep.status == "rejected") ++shed;
    if (rep.status != "ok" && rep.status != "overloaded" && rep.status != "rejected") ++errors;
    r.attempt(rep.status == "ok" && rep.converged,
              seq[i].id + ": status " + rep.status + (rep.converged ? "" : ", not converged"));
    if (rep.status != "ok") continue;
    queue.push_back(rep.queue_ms);
    solve.push_back(rep.solve_ms);
    overhead.push_back(rep.latency_ms - rep.queue_ms - rep.build_ms - rep.solve_ms);
    if (!rep.cache_hit) miss_build.push_back(rep.build_ms);
    iterations += rep.iterations;
    escalations += rep.escalations;
  }

  // Answer check: a seeded sample (the first request of each hot graph,
  // two cold misses, the rest random) re-run in process; the solution
  // hash must match the daemon's bit for bit, and the residual is
  // checked independently.
  std::vector<std::size_t> sample;
  for (std::size_t h = 0; h < kHotGraphs.size(); ++h) {
    for (std::size_t i = 0; i < n; ++i) {
      if (hot_of[i] == static_cast<int>(h)) {
        sample.push_back(i);
        break;
      }
    }
  }
  sample.push_back(cold_ids[0]);
  sample.push_back(cold_ids[1]);
  while (sample.size() < kHashSamples) sample.push_back(rng() % n);

  parlap::service::EngineOptions eo;
  eo.keep_solutions = true;
  parlap::service::SolveEngine engine(eo);
  std::int64_t levels = 0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const std::size_t i = sample[k];
    ScopedSpan span(tr, "service.engine:run_one");
    const auto jr = engine.run_one(seq[i]);
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(jr.solution_hash));
    const parlap::Multigraph g =
        load_graph(cold[i] ? kColdGraph : kHotGraphs[static_cast<std::size_t>(hot_of[i])],
                   seq[i].seed);
    const double res =
        jr.ok ? AnswerCheck(g).residual(parlap::service::job_rhs(seq[i], g.num_vertices()),
                                        jr.solution)
              : INFINITY;
    r.attempt(jr.ok && replies[i].hash == hash && res <= kEps,
              seq[i].id + ": daemon hash " + replies[i].hash + " vs in-process " +
                  hash + ", residual " + std::to_string(res));
    if (k < kHotGraphs.size()) levels += jr.report.build.levels;
  }

  const Tail lt = tail(latency);
  const Tail qt = tail(queue);
  const auto nn = static_cast<std::int64_t>(n);
  const auto quiet_setup = pick(setup, quiet_half(setup_steal));
  r.set("setup_s", median(quiet_setup), "s", static_cast<std::int64_t>(quiet_setup.size()),
        "median spawn-to-warm of the quieter " + std::to_string(quiet_setup.size()) +
            " of " + std::to_string(kServeSetups));
  // Throughput and median latency over the quieter half of the chunks
  // of kChunk answers.
  const auto keep = quiet_half(chunk_rate);
  std::vector<bool> quiet_chunk(chunk_ms.size(), false);
  for (const std::size_t k : keep) quiet_chunk[k] = true;
  std::vector<double> quiet_latency;
  for (const Reply& rep : replies) {
    if (quiet_chunk[rep.chunk]) quiet_latency.push_back(rep.latency_ms);
  }
  const std::string stat = "the quieter " + std::to_string(keep.size()) + " of " +
                           std::to_string(chunk_ms.size()) + " chunks of 100 answers";
  const double op_ms = median(pick(chunk_ms, keep));
  r.set("op_ms", op_ms, "ms", static_cast<std::int64_t>(keep.size()), "median over " + stat);
  r.set("req_per_s", 1e3 / op_ms, "1/s", static_cast<std::int64_t>(keep.size()), "1 / op_ms");
  r.set("sequence_ms_per_request", wall * 1e3 / static_cast<double>(n), "ms", nn,
        "sequence wall / requests");
  r.set("p50_ms", median(quiet_latency), "ms",
        static_cast<std::int64_t>(quiet_latency.size()), "median latency in " + stat);
  r.set("host.steal_cpus", median(chunk_rate), "cpus",
        static_cast<std::int64_t>(chunk_rate.size()), "median CPU steal rate over chunks");
  r.set("tail_ms", lt.value, "ms", nn, lt.label);
  r.set("req_p50_ms", median(latency), "ms", nn, "median over all requests");
  r.set("req_p99_ms", quantile(latency, 0.99), "ms", nn, "p99");
  r.set("peak_rss_mb", median(daemon_rss), "MB", kServeSetups, "median daemon VmHWM");
  r.set("engine.queue_wait_ms.p50", median(queue), "ms",
        static_cast<std::int64_t>(queue.size()), "median");
  r.set("engine.queue_wait_ms.tail", qt.value, "ms",
        static_cast<std::int64_t>(queue.size()), qt.label);
  r.set("engine.solve_ms", median(solve), "ms", static_cast<std::int64_t>(solve.size()),
        "median");
  r.set("engine.panel_occupancy", 1.0, "ratio", 1, "run_one solves width 1");
  r.set("cache.build_ms", median(miss_build), "ms",
        static_cast<std::int64_t>(miss_build.size()), "median over misses");
  r.set("cache.hit_ratio",
        static_cast<double>(hits) / static_cast<double>(std::max<std::uint64_t>(1, hits + misses)),
        "ratio", kServeSetups, "hits / lookups over the daemons");
  r.set("serve.overhead_ms", median(overhead), "ms",
        static_cast<std::int64_t>(overhead.size()),
        "median of latency - queue_wait - build - solve");
  r.set("serve.shed_ratio", static_cast<double>(shed) / static_cast<double>(n), "ratio", nn);
  r.set("serve.error_ratio", static_cast<double>(errors) / static_cast<double>(n), "ratio", nn);
  r.count("build.levels", levels);
  r.count("solver.iterations", iterations);
  r.count("solver.escalations", escalations);
  r.count("cache.misses", static_cast<std::int64_t>(misses));
  r.counts["cache.single_flight_waits"] = static_cast<std::int64_t>(single_flight);
  r.host["precision"] = "fp64";

  if (o.trace) probe_layers(o, kHotGraphs, r, tr);
}

}  // namespace perfbench
