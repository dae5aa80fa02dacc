// parlap_top — live monitor for a running parlap_serve daemon.
//
// Polls {"type":"stats"} over the daemon's unix socket or loopback TCP
// port and renders a refreshing one-screen table: workers, queue depth
// vs limit, in-flight, sessions, shed rate, last-60s throughput and
// percentiles next to lifetime, and cache hit rate — the operator's
// `top` for the solve tier. One fresh connection per poll, so the
// monitor never holds a session slot between refreshes and a daemon
// restart just shows up as a reconnect.
//
//   parlap_top --socket /run/parlap.sock
//   parlap_top --tcp 7070 --interval-ms 500
//   parlap_top --socket s --count 1 --plain   # one snapshot, no ANSI
//
// Exit codes: 0 clean (count reached or SIGINT), 2 usage error,
// 3 connect/protocol failure on the FIRST poll (later failures are
// shown and retried — a draining daemon should not kill the monitor).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "args.hpp"
#include "service/json.hpp"

namespace {

using namespace parlap;
using tools::Args;
using tools::UsageError;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitRuntime = 3;

constexpr const char* kUsage = R"(usage: parlap_top (--socket PATH | --tcp PORT) [options]

Target (one required):
  --socket PATH          daemon's unix-domain socket
  --tcp PORT             daemon's loopback TCP port

Options:
  --interval-ms T        poll interval (default 1000)
  --count N              exit after N polls (default 0 = forever)
  --plain                no screen clearing; print one block per poll

Polls {"type":"stats"} and renders queue/worker/window/cache state.
See docs/SERVING.md ("Monitoring") for the fields.
)";

struct TopOptions {
  std::string socket_path;
  int tcp_port = -1;
  int interval_ms = 1000;
  long count = 0;
  bool plain = false;
};

/// Connects, sends one stats request, reads one response line. Throws
/// on any failure — the caller decides whether that is fatal.
std::string fetch_stats(const TopOptions& opt) {
  int fd = -1;
  if (!opt.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long");
    }
    std::memcpy(addr.sun_path, opt.socket_path.c_str(),
                opt.socket_path.size() + 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      throw std::runtime_error("cannot connect to " + opt.socket_path + ": " +
                               std::strerror(errno));
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt.tcp_port));
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      throw std::runtime_error("cannot connect to tcp port " +
                               std::to_string(opt.tcp_port) + ": " +
                               std::strerror(errno));
    }
  }
  const char request[] = "{\"type\":\"stats\"}\n";
  if (::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL) !=
      static_cast<ssize_t>(sizeof(request) - 1)) {
    ::close(fd);
    throw std::runtime_error("stats request write failed");
  }
  std::string line;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("daemon closed before answering stats");
    }
    const char* nl =
        static_cast<const char*>(std::memchr(buf, '\n', static_cast<std::size_t>(n)));
    if (nl != nullptr) {
      line.append(buf, static_cast<std::size_t>(nl - buf));
      break;
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return line;
}

double num(const service::JsonValue* v, double fallback = 0.0) {
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

const service::JsonValue* child(const service::JsonValue* obj,
                                const char* key) {
  return obj != nullptr && obj->is_object() ? obj->find(key) : nullptr;
}

void render(const std::string& line, const TopOptions& opt) {
  const service::JsonValue doc = service::parse_json(line);
  if (!doc.is_object()) throw std::runtime_error("stats is not an object");

  const service::JsonValue* config = doc.find("config");
  const service::JsonValue* window = doc.find("window");
  const service::JsonValue* counters = doc.find("counters");
  const service::JsonValue* cache = doc.find("cache");
  const service::JsonValue* life_solve = doc.find("solve_seconds");
  const service::JsonValue* win_solve = child(window, "solve_seconds");
  const service::JsonValue* win_queue = child(window, "queue_wait_seconds");

  const double uptime = num(doc.find("uptime_seconds"));
  const double wcompleted = num(child(window, "completed"));
  const double wshed = num(child(window, "shed"));
  const double wseconds = num(child(window, "window_seconds"), 60.0);
  const double shed_rate = (wcompleted + wshed) > 0
                               ? wshed / (wcompleted + wshed)
                               : 0.0;
  const double lookups = num(child(cache, "hits")) + num(child(cache, "misses"));

  if (!opt.plain) std::fputs("\x1b[H\x1b[2J", stdout);
  char when[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(when, sizeof when, "%H:%M:%S", std::localtime(&now));
  const service::JsonValue* draining = doc.find("draining");
  const bool is_draining =
      draining != nullptr && draining->is_bool() && draining->as_bool();
  std::printf("parlap_top  %s  up %.0fs%s\n", when, uptime,
              is_draining ? "  DRAINING" : "");
  const service::JsonValue* simd_active = child(config, "simd_active");
  const service::JsonValue* precision = child(config, "precision");
  std::printf(
      "workers %d   simd %s   prec %s   queue %.0f/%.0f "
      "(%.0f bytes)   in-flight %.0f   sessions %.0f\n",
      static_cast<int>(num(child(config, "workers"), 1)),
      simd_active != nullptr && simd_active->is_string()
          ? simd_active->as_string().c_str()
          : "?",
      precision != nullptr && precision->is_string()
          ? precision->as_string().c_str()
          : "fp64",  // pre-precision daemons have no field; fp64 is what they run
      num(doc.find("queue_depth")), num(doc.find("queue_limit")),
      num(doc.find("queued_bytes")), num(doc.find("in_flight")),
      num(doc.find("sessions")));
  std::printf(
      "requests %.0f   completed %.0f   shed %.0f   rejected %.0f   "
      "errors %.0f\n",
      num(child(counters, "requests")), num(child(counters, "completed")),
      num(child(counters, "shed")), num(child(counters, "rejected")),
      num(child(counters, "errors")));
  std::printf("cache hit rate %5.1f%%  (%.0f lookups, %.0f resident)\n",
              num(child(cache, "hit_rate")) * 100.0, lookups,
              num(child(cache, "resident_count")));
  std::printf("\n%-14s %9s %9s %9s %9s %9s\n", "", "count", "mean_ms",
              "p50_ms", "p95_ms", "p99_ms");
  const auto row = [](const char* label, const service::JsonValue* digest) {
    std::printf("%-14s %9.0f %9.3f %9.3f %9.3f %9.3f\n", label,
                num(child(digest, "count")),
                num(child(digest, "mean")) * 1e3,
                num(child(digest, "p50")) * 1e3,
                num(child(digest, "p95")) * 1e3,
                num(child(digest, "p99")) * 1e3);
  };
  row("solve (60s)", win_solve);
  row("solve (life)", life_solve);
  row("queue (60s)", win_queue);
  std::printf(
      "\nlast %.0fs: %.2f solves/s   shed rate %.1f%%   (%.0f done, "
      "%.0f shed)\n",
      wseconds, wcompleted / wseconds, shed_rate * 100.0, wcompleted, wshed);
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  Args args(argc, argv, 1);
  if (args.take_flag("--help") || args.take_flag("-h")) {
    std::cout << kUsage;
    return kExitOk;
  }
  TopOptions opt;
  opt.socket_path = args.take_value("--socket").value_or("");
  opt.tcp_port = static_cast<int>(args.take_int("--tcp", -1));
  opt.interval_ms = static_cast<int>(args.take_int("--interval-ms", 1000));
  opt.count = static_cast<long>(args.take_int("--count", 0));
  opt.plain = args.take_flag("--plain");
  args.expect_empty();
  if (opt.socket_path.empty() && opt.tcp_port < 0) {
    throw UsageError("--socket PATH or --tcp PORT is required");
  }
  if (opt.interval_ms < 1) {
    throw UsageError("--interval-ms must be >= 1");
  }

  for (long poll = 0; opt.count == 0 || poll < opt.count; ++poll) {
    try {
      render(fetch_stats(opt), opt);
    } catch (const std::exception& e) {
      // First poll failing means the target is wrong — bail loudly.
      // Later failures are transient (daemon draining/restarting).
      if (poll == 0) throw;
      std::printf("parlap_top: %s (retrying)\n", e.what());
      std::fflush(stdout);
    }
    if (opt.count != 0 && poll + 1 >= opt.count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "parlap_top: " << e.what() << "\n\n" << kUsage;
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "parlap_top: " << e.what() << "\n";
    return kExitRuntime;
  }
}
