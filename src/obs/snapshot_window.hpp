// SnapshotWindow — a rolling window over lifetime instruments, taken
// as the difference of two readings of them.
//
// A daemon's lifetime counters and histograms answer "how has this
// process done since it started"; a dashboard also needs "how is it
// doing now". The owner keeps dated readings of the lifetime
// instruments, one per epoch, and reports a window as the current
// reading minus the oldest kept reading inside the window. Recording
// stays one update per instrument; the window costs one reading per
// epoch and one subtraction per query.
//
// Coverage: a window reaches back to its base reading, at most
// kWindowNs before now. With a reading kept each epoch, that is at
// least about one epoch short of kWindowNs, and a window younger than
// kWindowNs reaches back to the first reading. base() returns the
// reading's time with it, so a rate divides by the span covered.
//
// One thread calls tick() and base(). Other threads may record while a
// reading is taken: each count only grows, so a later reading never
// falls below an earlier one. Clocks are arguments, so tests drive time
// directly.
#pragma once

#include <cstdint>
#include <deque>

namespace parlap::obs {

template <typename Reading>
class SnapshotWindow {
 public:
  static constexpr std::uint64_t kWindowNs = 60'000'000'000ull;
  static constexpr std::uint64_t kEpochNs = 5'000'000'000ull;

  /// Keeps read() as the reading at now_ns when none is kept yet or the
  /// newest is an epoch old, and drops readings older than the window.
  template <typename Read>
  void tick(std::uint64_t now_ns, Read&& read) {
    if (!kept_.empty() && now_ns - kept_.back().at_ns < kEpochNs) return;
    kept_.push_back(Dated{now_ns, read()});
    while (now_ns - kept_.front().at_ns > kWindowNs) kept_.pop_front();
  }

  /// A kept reading and the time it was taken.
  struct Dated {
    std::uint64_t at_ns = 0;
    Reading reading{};
  };

  /// The oldest kept reading taken at most kWindowNs before now_ns, or
  /// the newest when all are older (no tick for a whole window): the
  /// window covers [at_ns, now_ns]. Requires a prior tick().
  [[nodiscard]] const Dated& base(std::uint64_t now_ns) const {
    for (const Dated& d : kept_) {
      if (now_ns - d.at_ns <= kWindowNs) return d;
    }
    return kept_.back();
  }

 private:
  std::deque<Dated> kept_;
};

}  // namespace parlap::obs
