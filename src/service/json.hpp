// A minimal JSON value type and recursive-descent parser.
//
// The service layer speaks JSONL (one JSON object per line) for batch
// job files, and the repo deliberately carries no third-party JSON
// dependency — support/json_writer.hpp is the *writer*; this is the
// matching reader. Scope is RFC 8259 minus the corners the job format never
// produces: numbers parse via strtod (so 1e-8 and -3.5 work), strings
// support the standard escapes plus \uXXXX for BMP code points, and
// objects keep the last value for a duplicated key.
//
// Errors throw std::invalid_argument with a byte offset and a short
// excerpt, so a bad line in a 10k-line job file is findable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace parlap::service {

/// One parsed JSON value. Cheap to move; arrays/objects own their
/// children. Accessors throw std::invalid_argument on kind mismatches so
/// schema errors in job files surface as readable messages, not UB.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// std::map keeps member iteration deterministic (sorted by key).
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() : v_(nullptr) {}
  explicit JsonValue(bool b) : v_(b) {}
  explicit JsonValue(double d) : v_(d) {}
  explicit JsonValue(std::string s) : v_(std::move(s)) {}
  explicit JsonValue(Array a) : v_(std::move(a)) {}
  explicit JsonValue(Object o) : v_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(v_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind() == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind() == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind() == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind() == Kind::kObject;
  }

  /// Checked accessors; throw std::invalid_argument on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses exactly one JSON value (leading/trailing whitespace allowed;
/// anything else after the value is an error). Throws
/// std::invalid_argument with offset + excerpt on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace parlap::service
