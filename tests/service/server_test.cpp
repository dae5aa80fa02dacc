// SolveServer unit tests: in-process daemon, raw-socket clients.
//
// These cover the protocol state machine and the survival properties at
// the C++ layer — deterministic shed at depth 0, malformed/oversized
// lines, concurrent clients agreeing on solution hashes, drain — with
// the server's I/O and worker threads live, so the TSan preset (labels
// service + parallel) checks the queue/results handoffs for real. The
// black-box suites in tests/serve/ drive the installed binary.
#include "service/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace parlap::service {
namespace {

std::string test_socket_path() {
  static int counter = 0;
  return "/tmp/parlap_srv_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + ".sock";
}

/// In-process server on its own thread; drains on destruction.
class TestServer {
 public:
  explicit TestServer(ServerOptions opt) : server_(std::move(opt)) {
    server_.start();
    thread_ = std::thread([this] { server_.serve(); });
  }

  ~TestServer() {
    server_.request_drain();
    thread_.join();
  }

  SolveServer& operator*() { return server_; }
  SolveServer* operator->() { return &server_; }

 private:
  SolveServer server_;
  std::thread thread_;
};

/// Blocking line-oriented client over a unix socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
  }

  /// Next response line, or "" on timeout/EOF.
  std::string read_line(int timeout_ms = 30000) {
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return "";
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// Minimal field probe — responses are flat one-line JSON, so a
/// substring check against the serialized key:value pair suffices.
bool has_field(const std::string& line, const std::string& fragment) {
  return line.find(fragment) != std::string::npos;
}

std::string extract_hash(const std::string& line) {
  const std::string key = "\"solution_hash\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return "";
  return line.substr(at + key.size(), 16);
}

ServerOptions base_options(const std::string& path) {
  ServerOptions opt;
  opt.socket_path = path;
  opt.engine.workers = 2;
  opt.engine.cache_budget_entries = 1 << 20;
  return opt;
}

constexpr const char* kJobA =
    R"({"type":"solve","id":"a","graph":"grid2d:12,12","eps":1e-6,"seed":7})";

TEST(SolveServer, PingPongAndStats) {
  const std::string path = test_socket_path();
  TestServer server(base_options(path));
  Client c(path);
  ASSERT_TRUE(c.connected());

  c.send_line(R"({"type":"ping"})");
  EXPECT_TRUE(has_field(c.read_line(), "\"type\":\"pong\""));

  c.send_line(R"({"type":"stats"})");
  const std::string stats = c.read_line();
  EXPECT_TRUE(has_field(stats, "\"type\":\"stats\""));
  EXPECT_TRUE(has_field(stats, "\"queue_depth\":0"));
  EXPECT_TRUE(has_field(stats, "\"p99\":"));
  EXPECT_TRUE(has_field(stats, "\"hit_rate\":"));
}

TEST(SolveServer, SolveStreamsResultWithHash) {
  const std::string path = test_socket_path();
  TestServer server(base_options(path));
  Client c(path);
  ASSERT_TRUE(c.connected());

  c.send_line(kJobA);
  const std::string r = c.read_line();
  ASSERT_TRUE(has_field(r, "\"status\":\"ok\"")) << r;
  EXPECT_TRUE(has_field(r, "\"id\":\"a\""));
  EXPECT_TRUE(has_field(r, "\"converged\":true"));
  const std::string hash = extract_hash(r);
  ASSERT_EQ(hash.size(), 16u);
  for (const char ch : hash) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(ch))) << hash;
  }
  EXPECT_EQ(server->completed_jobs(), 1u);
}

TEST(SolveServer, ConcurrentClientsAgreeOnHashes) {
  const std::string path = test_socket_path();
  ServerOptions opt = base_options(path);
  opt.engine.workers = 4;
  TestServer server(opt);

  constexpr int kClients = 4;
  std::vector<std::string> hashes(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c(path);
      ASSERT_TRUE(c.connected());
      // Same job from every client; the hash must not depend on which
      // worker runs it or in what order requests arrive.
      c.send_line(kJobA);
      hashes[static_cast<std::size_t>(i)] = extract_hash(c.read_line());
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(hashes[0].size(), 16u);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(hashes[static_cast<std::size_t>(i)], hashes[0]);
  }

  // Different seed -> different rhs -> (overwhelmingly) different hash.
  Client c(path);
  ASSERT_TRUE(c.connected());
  c.send_line(
      R"({"type":"solve","id":"z","graph":"grid2d:12,12","eps":1e-6,"seed":8})");
  EXPECT_NE(extract_hash(c.read_line()), hashes[0]);
}

TEST(SolveServer, ShedsEverythingAtDepthZero) {
  const std::string path = test_socket_path();
  ServerOptions opt = base_options(path);
  opt.max_queue_depth = 0;  // deterministic overload
  opt.retry_after_ms = 77;
  TestServer server(opt);
  Client c(path);
  ASSERT_TRUE(c.connected());

  c.send_line(kJobA);
  const std::string r = c.read_line();
  EXPECT_TRUE(has_field(r, "\"status\":\"overloaded\"")) << r;
  EXPECT_TRUE(has_field(r, "\"retry_after_ms\":77"));
  EXPECT_TRUE(has_field(r, "\"id\":\"a\""));

  // Shed is an answer, not a failure: the session keeps working.
  c.send_line(R"({"type":"ping"})");
  EXPECT_TRUE(has_field(c.read_line(), "\"type\":\"pong\""));
}

TEST(SolveServer, MalformedAndOversizedLinesKeepSessionAlive) {
  const std::string path = test_socket_path();
  ServerOptions opt = base_options(path);
  opt.max_line_bytes = 256;
  TestServer server(opt);
  Client c(path);
  ASSERT_TRUE(c.connected());

  c.send_line("{this is not json");
  EXPECT_TRUE(has_field(c.read_line(), "\"status\":\"error\""));

  c.send_line(R"({"type":"solve","id":"bad id!","graph":"grid2d:4"})");
  const std::string schema_err = c.read_line();
  EXPECT_TRUE(has_field(schema_err, "\"status\":\"error\"")) << schema_err;
  EXPECT_TRUE(has_field(schema_err, "request: ")) << schema_err;

  c.send_line(std::string(1000, 'x'));
  EXPECT_TRUE(has_field(c.read_line(), "exceeds 256 bytes"));

  // All three errors were structured responses on a live session.
  c.send_line(kJobA);
  EXPECT_TRUE(has_field(c.read_line(), "\"status\":\"ok\""));
}

TEST(SolveServer, DrainFinishesInFlightThenCloses) {
  const std::string path = test_socket_path();
  TestServer server(base_options(path));
  Client c(path);
  ASSERT_TRUE(c.connected());

  // Pipeline a few jobs, then drain while they are queued/running.
  for (int i = 0; i < 4; ++i) {
    c.send_line(R"({"type":"solve","id":"d)" + std::to_string(i) +
                R"(","graph":"grid2d:16,16","eps":1e-6,"seed":)" +
                std::to_string(i) + "}");
  }
  // The first result proves all four lines were read and admitted
  // together (they are handled in one read pass, results come later);
  // only then pull the plug, so the drain has real in-flight work.
  int ok = 0;
  if (has_field(c.read_line(), "\"status\":\"ok\"")) ++ok;
  server->request_drain();
  for (int i = 1; i < 4; ++i) {
    const std::string r = c.read_line();
    if (has_field(r, "\"status\":\"ok\"")) ++ok;
  }
  EXPECT_EQ(ok, 4);        // every admitted job completed and flushed
  EXPECT_EQ(c.read_line(5000), "");  // then the server closed the socket
  EXPECT_EQ(server->completed_jobs(), 4u);
}

std::uint64_t extract_request_id(const std::string& line) {
  const std::string key = "\"request_id\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
}

TEST(SolveServer, SolveResponsesCarryUniqueRequestIdsAndTimings) {
  const std::string path = test_socket_path();
  TestServer server(base_options(path));
  Client c(path);
  ASSERT_TRUE(c.connected());

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    c.send_line(R"({"type":"solve","id":"r)" + std::to_string(i) +
                R"(","graph":"grid2d:12,12","eps":1e-6,"seed":7})");
  }
  for (int i = 0; i < 3; ++i) {
    const std::string r = c.read_line();
    ASSERT_TRUE(has_field(r, "\"status\":\"ok\"")) << r;
    // Every result carries the admission-minted request id plus the
    // phase breakdown (queue wait / cache verdict / build / solve).
    const std::uint64_t rid = extract_request_id(r);
    EXPECT_GT(rid, 0u) << r;
    ids.push_back(rid);
    EXPECT_TRUE(has_field(r, "\"timings\":{\"queue_wait_ms\":")) << r;
    EXPECT_TRUE(has_field(r, "\"solve_ms\":")) << r;
    EXPECT_TRUE(has_field(r, "\"cache\":\"")) << r;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(SolveServer, MetricsVerbReturnsPrometheusText) {
  const std::string path = test_socket_path();
  TestServer server(base_options(path));
  Client c(path);
  ASSERT_TRUE(c.connected());

  c.send_line(kJobA);
  ASSERT_TRUE(has_field(c.read_line(), "\"status\":\"ok\""));

  c.send_line(R"({"type":"metrics"})");
  const std::string r = c.read_line();
  ASSERT_TRUE(has_field(r, "\"type\":\"metrics\"")) << r;
  EXPECT_TRUE(has_field(r, "\"status\":\"ok\"")) << r;
  EXPECT_TRUE(
      has_field(r, "\"content_type\":\"text/plain; version=0.0.4"))
      << r;
  // The escaped exposition text rides in "text": spot-check the serve
  // families and the histogram framing (names are a stability contract,
  // see docs/OBSERVABILITY.md).
  EXPECT_TRUE(has_field(r, "parlap_serve_requests_total")) << r;
  EXPECT_TRUE(has_field(r, "parlap_serve_completed_total")) << r;
  EXPECT_TRUE(has_field(r, "parlap_serve_solve_seconds_bucket")) << r;
  EXPECT_TRUE(has_field(r, "# TYPE parlap_serve_requests_total counter"))
      << r;
}

TEST(SolveServer, HttpScrapeOverJsonListener) {
  const std::string path = test_socket_path();
  TestServer server(base_options(path));
  Client c(path);
  ASSERT_TRUE(c.connected());

  // A raw HTTP/1.1 GET on the same listener: the first line flips the
  // session into scrape mode, the blank line after the headers fires
  // the response, and the server closes when the reply is flushed.
  c.send_line("GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r");
  std::string all;
  for (std::string line = c.read_line(); !line.empty();
       line = c.read_line(5000)) {
    all += line;
    all += '\n';
  }
  EXPECT_EQ(all.compare(0, 15, "HTTP/1.1 200 OK"), 0) << all;
  EXPECT_TRUE(has_field(all, "Content-Type: text/plain; version=0.0.4"))
      << all;
  EXPECT_TRUE(has_field(all, "Connection: close")) << all;
  EXPECT_TRUE(has_field(all, "# TYPE parlap_serve_requests_total counter"))
      << all;

  // An unknown target is a structured 404, not a dropped connection.
  Client c2(path);
  ASSERT_TRUE(c2.connected());
  c2.send_line("GET /nope HTTP/1.1\r\n\r");
  EXPECT_EQ(c2.read_line().compare(0, 22, "HTTP/1.1 404 Not Found"), 0);
}

TEST(SolveServer, StatsEchoesConfigAndWindow) {
  const std::string path = test_socket_path();
  ServerOptions opt = base_options(path);
  opt.max_queue_depth = 99;
  opt.slow_ms = 12.5;
  TestServer server(opt);
  Client c(path);
  ASSERT_TRUE(c.connected());

  c.send_line(kJobA);
  ASSERT_TRUE(has_field(c.read_line(), "\"status\":\"ok\""));

  c.send_line(R"({"type":"stats"})");
  const std::string stats = c.read_line();
  // The config echo lets clients and harnesses learn the deployed
  // limits in-band instead of hard-coding launch flags.
  EXPECT_TRUE(has_field(stats, "\"config\":{")) << stats;
  EXPECT_TRUE(has_field(stats, "\"workers\":2")) << stats;
  EXPECT_TRUE(has_field(stats, "\"queue_limit\":99")) << stats;
  EXPECT_TRUE(has_field(stats, "\"slow_ms\":12.5")) << stats;
  // And the rolling window reports alongside lifetime. The registry is
  // process-global and earlier tests in this binary solved too, but the
  // window starts at this server's start(): it holds exactly this solve.
  const std::string wkey =
      "\"window\":{\"window_seconds\":60,\"completed\":1,\"shed\":0,";
  EXPECT_TRUE(has_field(stats, wkey)) << stats;
  // The window's solve digest comes before the lifetime one.
  const std::string digest = "\"solve_seconds\":{\"count\":";
  const std::size_t at = stats.find(digest, stats.find(wkey));
  ASSERT_NE(at, std::string::npos) << stats;
  EXPECT_EQ(std::strtoull(stats.c_str() + at + digest.size(), nullptr, 10), 1u)
      << stats;
}

/// The number after `key` in a flat one-line JSON response (0 when the
/// key is absent).
double number_after(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + key.size(), nullptr);
}

TEST(SolveServer, YoungDaemonWindowRateCoversItsUptime) {
  // A daemon younger than the 60 s window divides its window's
  // completions by the span the window covers, its uptime, not by 60 s:
  // one solve in its first seconds reads well above 1/60 per second.
  const std::string path = test_socket_path();
  TestServer server(base_options(path));
  Client c(path);
  ASSERT_TRUE(c.connected());

  c.send_line(kJobA);
  ASSERT_TRUE(has_field(c.read_line(), "\"status\":\"ok\""));
  c.send_line(R"({"type":"stats"})");
  const std::string stats = c.read_line();
  ASSERT_TRUE(has_field(stats, "\"window_seconds\":60,\"completed\":1,"))
      << stats;
  const double uptime = number_after(stats, "\"uptime_seconds\":");
  const double rate = number_after(stats, "\"throughput_per_second\":");
  ASSERT_GT(uptime, 0.0) << stats;
  ASSERT_LT(uptime, 60.0) << stats;
  EXPECT_GT(rate, 1.0 / 60.0) << stats;
  // The window's base is the reading start() takes, so the span it
  // covers is the uptime the same response reports.
  EXPECT_NEAR(rate * uptime, 1.0, 1e-9) << stats;
}

TEST(SolveServer, DisconnectPurgesQueuedJobs) {
  const std::string path = test_socket_path();
  ServerOptions opt = base_options(path);
  opt.engine.workers = 1;
  TestServer server(opt);

  {
    Client flood(path);
    ASSERT_TRUE(flood.connected());
    for (int i = 0; i < 8; ++i) {
      flood.send_line(R"({"type":"solve","id":"f)" + std::to_string(i) +
                      R"(","graph":"grid2d:24,24","eps":1e-8,"seed":)" +
                      std::to_string(100 + i) + "}");
    }
    // Leave scope: the client disconnects with most jobs still queued.
  }

  // The queue must return to empty (slots not leaked) and the server
  // must stay responsive to a fresh client.
  Client c(path);
  ASSERT_TRUE(c.connected());
  for (int attempt = 0; attempt < 200; ++attempt) {
    c.send_line(R"({"type":"stats"})");
    const std::string stats = c.read_line();
    if (has_field(stats, "\"queue_depth\":0") &&
        has_field(stats, "\"in_flight\":0")) {
      SUCCEED();
      return;
    }
    ::usleep(50 * 1000);
  }
  FAIL() << "queue never drained after client disconnect";
}

}  // namespace
}  // namespace parlap::service
