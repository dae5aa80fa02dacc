// The JSON writer behind every document parlap emits: CLI reports, the
// daemon's responses and event log, the Chrome trace, the metrics
// snapshot and the bench reports. service/json.hpp is the matching
// reader. One rule for every document, with no option to pick another:
//
//   - Strings escape `"`, `\` and bytes below 0x20. Well-formed UTF-8
//     (RFC 3629) passes through; any other byte is written as \u00XX,
//     so a document is valid UTF-8 whatever bytes its strings held.
//   - Integers print exactly, uint64_t counters included.
//   - Finite doubles print without a fraction when integral and below
//     2^53 in magnitude, and as %.17g (round-trippable) otherwise.
//   - NaN and +-Inf print as null (JSON has neither).
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>

namespace parlap {

/// Appends JSON to a string the caller owns, placing the commas. The
/// caller balances begin/end calls, and may write the string out and
/// clear it between values to stream a large document.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Emits the key of the next member; must be inside an object.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double d);
  void value(bool b);
  template <std::integral T>
  void value(T i) {
    separate();
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, i).ptr;
    out_.append(buf, static_cast<std::size_t>(end - buf));
  }

  /// key() + value() in one call.
  template <typename T>
  void member(std::string_view k, T&& v) {
    key(k);
    value(std::forward<T>(v));
  }

  /// A double as value() writes it, for text outside a document.
  [[nodiscard]] static std::string format_number(double d);

 private:
  /// Writes the comma owed before a value, if any.
  void separate() {
    if (comma_) out_ += ',';
    comma_ = true;
  }
  void open(char bracket) {
    separate();
    out_ += bracket;
    comma_ = false;
  }
  void close(char bracket) {
    out_ += bracket;
    comma_ = true;
  }
  void append_string(std::string_view s);

  std::string& out_;
  /// Whether the next key or value follows a sibling. A closed container
  /// is itself a value, so no per-depth state is needed.
  bool comma_ = false;
};

}  // namespace parlap
