// Structured JSONL event log — the serve daemon's slow-request /
// lifecycle journal (`--event-log`, docs/SERVING.md "Event log").
//
// Each append opens the path O_APPEND, writes the full line in a
// single write(2), and closes: atomic-per-line for lines under
// PIPE_BUF-ish sizes and rotation-safe (an external `mv` + truncate or
// logrotate(8) copytruncate cycle never strands a stale descriptor —
// the next append reopens the live path). Appends are rare by design
// (slow requests + lifecycle events, not every request), so the
// open/close cost is irrelevant next to the solve it annotates.
#pragma once

#include <string>
#include <string_view>

#include "support/json_writer.hpp"

namespace parlap::obs {

/// Wall-clock seconds since the Unix epoch (system_clock — event logs
/// are correlated with external logs, unlike steady_now_ns() spans).
[[nodiscard]] double unix_now_seconds() noexcept;

class EventLog {
 public:
  EventLog() = default;
  explicit EventLog(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

  /// Appends the line {"event":EVENT,"ts":unix seconds,...} whose other
  /// members `fill(JsonWriter&)` writes; `fill` runs only when the log
  /// is enabled. Write failures are swallowed: telemetry must never take
  /// down the serving path.
  template <typename Fill>
  void append(const char* event, Fill&& fill) const {
    if (!enabled()) return;
    std::string line;
    JsonWriter w(line);
    w.begin_object();
    w.member("event", event);
    w.member("ts", unix_now_seconds());
    fill(w);
    w.end_object();
    line += '\n';
    write_line(line);
  }

 private:
  void write_line(std::string_view line) const noexcept;

  std::string path_;
};

}  // namespace parlap::obs
