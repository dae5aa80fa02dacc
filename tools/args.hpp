// Command-line parsing shared by parlap_cli, parlap_serve and parlap_top.
//
// Each tool takes its `--flag VALUE` pairs and bare switches out of one
// argument list, in any order, then refuses whatever is left. A value
// that looks like a flag ("--metrics" after "--event-log") is refused
// rather than swallowed; negative numbers ("-1") are values. Every
// malformed command line throws UsageError, which each tool's main()
// turns into exit code 2.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace parlap::tools {

/// Thrown for malformed command lines; main() prints usage and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  /// The arguments argv[first], ..., argv[argc - 1].
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Consumes `flag` if present (no value). Returns whether it was there.
  bool take_flag(const std::string& flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return false;
    args_.erase(it);
    return true;
  }

  /// Consumes `flag VALUE` if present; returns the value.
  std::optional<std::string> take_value(const std::string& flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return std::nullopt;
    const auto val = std::next(it);
    if (val == args_.end() ||
        (val->size() > 1 && (*val)[0] == '-' &&
         !std::isdigit(static_cast<unsigned char>((*val)[1])))) {
      throw UsageError("option " + flag + " needs a value");
    }
    std::string out = *val;
    args_.erase(it, std::next(val));
    return out;
  }

  double take_double(const std::string& flag, double fallback) {
    const auto v = take_value(flag);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const double d = std::stod(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return d;
    } catch (const std::exception&) {
      throw UsageError("option " + flag + ": '" + *v + "' is not a number");
    }
  }

  std::int64_t take_int(const std::string& flag, std::int64_t fallback) {
    const auto v = take_value(flag);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const std::int64_t i = std::stoll(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return i;
    } catch (const std::exception&) {
      throw UsageError("option " + flag + ": '" + *v + "' is not an integer");
    }
  }

  /// All options must have been consumed by now.
  void expect_empty() const {
    if (!args_.empty()) {
      throw UsageError("unrecognized option '" + args_.front() + "'");
    }
  }

 private:
  std::vector<std::string> args_;
};

}  // namespace parlap::tools
