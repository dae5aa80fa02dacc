#include "obs/window.hpp"

namespace parlap::obs {

namespace {

// Number of whole epochs a window of `window_ns` spans, clamped so the
// current partial epoch plus the full ones never exceed the ring.
std::uint64_t window_epochs(std::uint64_t window_ns, std::uint64_t epoch_ns,
                            std::size_t slots) noexcept {
  std::uint64_t epochs = window_ns / epoch_ns;
  if (epochs == 0) epochs = 1;
  const std::uint64_t cap = static_cast<std::uint64_t>(slots) - 1;
  return epochs < cap ? epochs : cap;
}

}  // namespace

bool WindowedHistogram::claim_slot(Slot& slot, std::uint64_t epoch) noexcept {
  const std::uint64_t want = stable_tag(epoch);
  for (;;) {
    std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
    if (tag == want) return true;
    if (tag > want) return false;  // slot already hosts a newer epoch
    if (tag == want - 1) continue;  // another writer is resetting; spin
    // Slot holds an older epoch (or was never used): race to reset it.
    if (slot.tag.compare_exchange_weak(tag, want - 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      slot.hist.reset();
      slot.tag.store(want, std::memory_order_release);
      return true;
    }
  }
}

void WindowedHistogram::record_ns_at(std::uint64_t ns,
                                     std::uint64_t now_ns) noexcept {
  const std::uint64_t epoch = now_ns / epoch_ns_;
  Slot& slot = slots_[epoch % kSlots];
  if (claim_slot(slot, epoch)) slot.hist.record_ns(ns);
}

WindowDigest WindowDigest::of(const LatencyHistogram& h) noexcept {
  WindowDigest d;
  d.count = h.count();
  d.sum_seconds = h.sum_seconds();
  d.mean = h.mean_seconds();
  d.p50 = h.percentile_seconds(0.50);
  d.p95 = h.percentile_seconds(0.95);
  d.p99 = h.percentile_seconds(0.99);
  return d;
}

WindowDigest WindowedHistogram::digest_at(std::uint64_t window_ns,
                                          std::uint64_t now_ns) const noexcept {
  LatencyHistogram merged;
  merge_window_into(merged, window_ns, now_ns);
  WindowDigest d = WindowDigest::of(merged);
  d.window_seconds = static_cast<double>(window_ns) * 1e-9;
  return d;
}

void WindowedHistogram::merge_window_into(LatencyHistogram& out,
                                          std::uint64_t window_ns,
                                          std::uint64_t now_ns) const noexcept {
  const std::uint64_t cur_epoch = now_ns / epoch_ns_;
  const std::uint64_t epochs = window_epochs(window_ns, epoch_ns_, kSlots);
  for (const Slot& slot : slots_) {
    const std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
    if (tag < 2 || (tag & 1) != 0) continue;  // never used or mid-reset
    const std::uint64_t epoch = (tag - 2) / 2;
    if (epoch > cur_epoch || cur_epoch - epoch > epochs) continue;
    out.merge_from(slot.hist);
  }
}

void WindowedCounter::add_at(std::uint64_t d, std::uint64_t now_ns) noexcept {
  const std::uint64_t epoch = now_ns / epoch_ns_;
  Slot& slot = slots_[epoch % kSlots];
  const std::uint64_t want = 2 * epoch + 2;
  for (;;) {
    std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
    if (tag == want) break;
    if (tag > want) return;  // ancient record; drop with its epoch
    if (tag == want - 1) continue;
    if (slot.tag.compare_exchange_weak(tag, want - 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      slot.value.store(0, std::memory_order_relaxed);
      slot.tag.store(want, std::memory_order_release);
      break;
    }
  }
  slot.value.fetch_add(d, std::memory_order_relaxed);
}

std::uint64_t WindowedCounter::sum_at(std::uint64_t window_ns,
                                      std::uint64_t now_ns) const noexcept {
  const std::uint64_t cur_epoch = now_ns / epoch_ns_;
  std::uint64_t epochs = window_ns / epoch_ns_;
  if (epochs == 0) epochs = 1;
  const std::uint64_t cap = static_cast<std::uint64_t>(kSlots) - 1;
  if (epochs > cap) epochs = cap;
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    const std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
    if (tag < 2 || (tag & 1) != 0) continue;
    const std::uint64_t epoch = (tag - 2) / 2;
    if (epoch > cur_epoch || cur_epoch - epoch > epochs) continue;
    total += slot.value.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace parlap::obs
