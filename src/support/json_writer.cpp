#include "support/json_writer.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>

namespace parlap {

namespace {

/// Length of the well-formed UTF-8 sequence (RFC 3629) at the start of
/// `s`, whose first byte is >= 0x80; 0 when the bytes are ill-formed.
std::size_t utf8_sequence_length(std::string_view s) {
  const auto byte = [&](std::size_t i) {
    return static_cast<unsigned char>(s[i]);
  };
  const unsigned char lead = byte(0);
  const std::size_t len = lead >= 0xF0 ? 4 : lead >= 0xE0 ? 3 : 2;
  // The second byte's range per lead byte rules out overlong forms,
  // UTF-16 surrogates and code points past U+10FFFF.
  const unsigned char lo = lead == 0xE0 ? 0xA0 : lead == 0xF0 ? 0x90 : 0x80;
  const unsigned char hi = lead == 0xED ? 0x9F : lead == 0xF4 ? 0x8F : 0xBF;
  bool ok = lead >= 0xC2 && lead <= 0xF4 && s.size() >= len &&
            byte(1) >= lo && byte(1) <= hi;
  for (std::size_t i = 2; ok && i < len; ++i) ok = (byte(i) & 0xC0) == 0x80;
  return ok ? len : 0;
}

}  // namespace

void JsonWriter::key(std::string_view k) {
  separate();
  append_string(k);
  out_ += ':';
  comma_ = false;
}

void JsonWriter::value(std::string_view s) {
  separate();
  append_string(s);
}

void JsonWriter::value(double d) {
  separate();
  if (!std::isfinite(d)) {
    out_ += "null";
    return;
  }
  constexpr double kExactInt = 9007199254740992.0;  // 2^53
  char buf[32];
  const char* end = buf;
  if (d == std::floor(d) && std::fabs(d) < kExactInt) {
    end = std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d))
              .ptr;
  } else {
    end = buf + std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  out_.append(buf, static_cast<std::size_t>(end - buf));
}

void JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
}

std::string JsonWriter::format_number(double d) {
  std::string out;
  JsonWriter(out).value(d);
  return out;
}

void JsonWriter::append_string(std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    const std::size_t len = c >= 0x80 ? utf8_sequence_length(s.substr(i)) : 0;
    if (len > 0) {
      out_.append(s.substr(i, len));
      i += len - 1;
      continue;
    }
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (c < 0x20 || c >= 0x80) {
          out_ += "\\u00";
          out_ += kHex[c >> 4];
          out_ += kHex[c & 0xF];
        } else {
          out_ += static_cast<char>(c);
        }
    }
  }
  out_ += '"';
}

}  // namespace parlap
