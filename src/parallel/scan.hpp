// Parallel prefix sums.
//
// Used to turn per-item counts into offsets (CSR construction per
// Lemma 2.7, edge-splitting placement per Lemma 3.2) — the canonical
// O(n) work / O(log n) depth PRAM scan, realized as the standard
// two-pass blocked algorithm on OpenMP.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include <omp.h>

#include "parallel/for_each.hpp"

namespace parlap {

/// In-place exclusive prefix sum; returns the grand total. Serial below
/// 2^14 entries and wherever parallelism_allowed() is false (inside a
/// parallel region or under a SerialScope).
template <typename T>
T exclusive_scan(std::span<T> values, T init = T{}) {
  const std::int64_t n = static_cast<std::int64_t>(values.size());
  if (n < (1 << 14) || !parallelism_allowed()) {
    T running = init;
    for (std::int64_t i = 0; i < n; ++i) {
      const T v = values[static_cast<std::size_t>(i)];
      values[static_cast<std::size_t>(i)] = running;
      running += v;
    }
    return running;
  }

  // omp_get_max_threads() bounds the team; the blocks follow the team
  // actually granted, which may be smaller.
  std::vector<T> block_sum(static_cast<std::size_t>(omp_get_max_threads()) + 1,
                           T{});
  int blocks = 1;
#pragma omp parallel
  {
    const int threads = omp_get_num_threads();
    const int t = omp_get_thread_num();
    const std::int64_t chunk = (n + threads - 1) / threads;
    const std::int64_t lo = t * chunk;
    const std::int64_t hi = lo + chunk < n ? lo + chunk : n;
    T local{};
    for (std::int64_t i = lo; i < hi; ++i) local += values[static_cast<std::size_t>(i)];
    block_sum[static_cast<std::size_t>(t) + 1] = local;
#pragma omp barrier
#pragma omp single
    {
      blocks = threads;
      block_sum[0] = init;
      for (int b = 1; b <= threads; ++b) block_sum[static_cast<std::size_t>(b)] += block_sum[static_cast<std::size_t>(b) - 1];
    }
    T running = block_sum[static_cast<std::size_t>(t)];
    for (std::int64_t i = lo; i < hi; ++i) {
      const T v = values[static_cast<std::size_t>(i)];
      values[static_cast<std::size_t>(i)] = running;
      running += v;
    }
  }
  return block_sum[static_cast<std::size_t>(blocks)];
}

}  // namespace parlap
