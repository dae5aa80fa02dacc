// Sliding-window instruments — rolling views over the lifetime
// counters and log-bucketed histograms of metrics.hpp.
//
// A serving daemon's lifetime aggregates answer "how has this process
// done since it started", but an operator watching a dashboard needs
// "how is it doing NOW": last-minute throughput and percentiles that
// recover after a traffic burst instead of being diluted forever by
// history. WindowedHistogram and WindowedCounter provide that view as
// a ring of per-epoch sub-instruments:
//
//   - record() buckets the sample into the slot owned by the current
//     epoch (now / epoch_ns). Slot reuse is coordinated by a per-slot
//     epoch tag: the first writer to reach a stale slot CASes the tag
//     to a "resetting" sentinel, zeroes the slot, publishes the new
//     tag (release), and every other writer of that epoch records
//     lock-free. Steady state is exactly the LatencyHistogram /
//     Counter hot path plus one acquire load.
//   - digest()/sum() merge the slots whose tag falls inside the
//     requested window — reads are lock-free and never write, so a
//     reader cannot stall a recording thread ("lock-free advance from
//     the reader": a reader simply skips slots that have gone stale;
//     clearing is the next writer's job).
//
// Approximation contract: within an epoch, counts are exact (relaxed
// fetch_adds, bit-identical across thread counts — tests/obs/
// window_test.cpp holds this). At an epoch turnover, records racing
// the slot reset for the *outgoing* epoch are dropped with the rest of
// that slot's history; the loss window is one reset (~microseconds)
// once per epoch. The reported window spans complete epochs plus the
// current partial one, so a "60s" digest covers between
// window - epoch and window seconds of history.
//
// Timestamps are injectable (record_ns_at / digest_at) so tests drive
// epoch advance deterministically; the default entry points read
// steady_now_ns().
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"
#include "support/timer.hpp"

namespace parlap::obs {

/// Merged view of one window: the same digest shape the registry
/// exports for lifetime histograms, plus the span it covers.
struct WindowDigest {
  std::uint64_t count = 0;
  double sum_seconds = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Nominal window length the digest was asked for, in seconds.
  double window_seconds = 0.0;

  /// The digest of a whole histogram (window_seconds stays 0).
  [[nodiscard]] static WindowDigest of(const LatencyHistogram& h) noexcept;
};

/// Sliding-window wrapper over LatencyHistogram: a ring of per-epoch
/// sub-histograms (see file comment for the reuse protocol).
class WindowedHistogram {
 public:
  /// Ring slots. A window may span at most kSlots - 1 full epochs (the
  /// remaining slot is the current, partially-filled epoch).
  static constexpr std::size_t kSlots = 16;
  /// Default epoch length: 5s slots make a 60s window 12 epochs.
  static constexpr std::uint64_t kDefaultEpochNs = 5'000'000'000ull;

  explicit WindowedHistogram(std::uint64_t epoch_ns = kDefaultEpochNs) noexcept
      : epoch_ns_(epoch_ns == 0 ? 1 : epoch_ns) {}

  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void record_ns(std::uint64_t ns) noexcept {
    record_ns_at(ns, steady_now_ns());
  }
  void record_seconds(double seconds) noexcept {
    record_ns(seconds <= 0.0 ? 0
                             : static_cast<std::uint64_t>(seconds * 1e9));
  }
  /// Records with an explicit clock reading (tests drive epoch advance
  /// through this; production uses record_ns/record_seconds).
  void record_ns_at(std::uint64_t ns, std::uint64_t now_ns) noexcept;

  /// Digest of the last `window_ns` (clamped to (kSlots - 1) epochs).
  [[nodiscard]] WindowDigest digest(std::uint64_t window_ns) const noexcept {
    return digest_at(window_ns, steady_now_ns());
  }
  [[nodiscard]] WindowDigest digest_at(std::uint64_t window_ns,
                                       std::uint64_t now_ns) const noexcept;

  /// Adds the window's bucket counts into `out` (tests compare merged
  /// buckets against a lifetime histogram for bit-identity).
  void merge_window_into(LatencyHistogram& out, std::uint64_t window_ns,
                         std::uint64_t now_ns) const noexcept;

  [[nodiscard]] std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }

 private:
  /// Slot-tag encoding: 0 = never used; stable(e) = 2e + 2 (even);
  /// resetting(e) = 2e + 1. Strictly increasing across an epoch's
  /// lifecycle, so a reader can tell exactly which epoch a slot holds.
  [[nodiscard]] static constexpr std::uint64_t stable_tag(
      std::uint64_t epoch) noexcept {
    return 2 * epoch + 2;
  }

  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    LatencyHistogram hist;
  };

  /// Spins until `slot` owns `epoch` (resetting it if this caller gets
  /// there first). Returns false when the slot has already advanced to
  /// a NEWER epoch — the caller's record is ancient and is dropped.
  [[nodiscard]] bool claim_slot(Slot& slot, std::uint64_t epoch) noexcept;

  const std::uint64_t epoch_ns_;
  Slot slots_[kSlots];
};

/// Sliding-window event counter: same ring/tag protocol with a plain
/// uint64 per slot. sum() is the event count inside the window — the
/// "requests in the last 60s" half of a throughput gauge.
class WindowedCounter {
 public:
  static constexpr std::size_t kSlots = WindowedHistogram::kSlots;

  explicit WindowedCounter(
      std::uint64_t epoch_ns = WindowedHistogram::kDefaultEpochNs) noexcept
      : epoch_ns_(epoch_ns == 0 ? 1 : epoch_ns) {}

  WindowedCounter(const WindowedCounter&) = delete;
  WindowedCounter& operator=(const WindowedCounter&) = delete;

  void add(std::uint64_t d = 1) noexcept { add_at(d, steady_now_ns()); }
  void add_at(std::uint64_t d, std::uint64_t now_ns) noexcept;

  [[nodiscard]] std::uint64_t sum(std::uint64_t window_ns) const noexcept {
    return sum_at(window_ns, steady_now_ns());
  }
  [[nodiscard]] std::uint64_t sum_at(std::uint64_t window_ns,
                                     std::uint64_t now_ns) const noexcept;

  [[nodiscard]] std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> value{0};
  };

  const std::uint64_t epoch_ns_;
  Slot slots_[kSlots];
};

}  // namespace parlap::obs
