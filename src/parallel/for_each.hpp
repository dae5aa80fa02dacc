// Thin, typed wrappers over OpenMP worksharing.
//
// The paper's model is CREW PRAM; every primitive it uses (independent
// per-edge walks, per-vertex filters, representation conversions) is a
// flat data-parallel loop, which these wrappers express. All call sites
// write to disjoint locations or use explicit reductions, so scheduling
// never affects results.
//
// Nested parallelism: a wrapper invoked from inside an OpenMP parallel
// region (omp_in_parallel()) or under a SerialScope runs its loop
// serially instead of forking a nested team. The solve engine's worker
// pool (src/service/solve_engine.hpp) relies on this: with several
// workers each pool thread holds a SerialScope, so N concurrent solves
// use N threads total instead of N * omp_get_max_threads(). Results are
// unaffected: every call site is deterministic across thread counts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include <omp.h>

namespace parlap {

namespace detail {
/// Depth of SerialScope nesting on this thread (0 = parallelism allowed).
inline thread_local int serial_scope_depth = 0;
}  // namespace detail

/// RAII guard that forces the parallel_for / parallel_reduce /
/// exclusive_scan primitives on the *current thread* to run serially for
/// its lifetime. Used by worker pools whose threads each execute an
/// already-parallel workload side by side.
class SerialScope {
 public:
  SerialScope() noexcept { ++detail::serial_scope_depth; }
  ~SerialScope() { --detail::serial_scope_depth; }

  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;
};

/// Whether the primitives below may fork a parallel region on this
/// thread: false inside an OpenMP parallel region (no oversubscribing
/// nested teams) or under a SerialScope.
[[nodiscard]] inline bool parallelism_allowed() noexcept {
  return detail::serial_scope_depth == 0 && omp_in_parallel() == 0;
}

/// Number of threads OpenMP will use for the next parallel region.
[[nodiscard]] inline int thread_count() { return omp_get_max_threads(); }

/// Entries a pass of the chain build must hold before it forks. At 1024
/// entries the lightest pass (a degree sum, a few ns an entry) holds
/// about the microseconds of work a fork costs a warm team, and the walks
/// (about 100 ns an entry) fill two blocks and already gain.
inline constexpr std::int64_t kForkEntries = 1024;

/// The chain build's one fork rule: a pass forks when it holds at least
/// kForkEntries entries (edges to walk, row entries to read), however
/// few rows carry them, and parallelism_allowed().
[[nodiscard]] inline bool fork_pays(std::int64_t entries) noexcept {
  return entries >= kForkEntries && parallelism_allowed();
}

/// Runs `fn(i, c)` for every row i of a CSR with offsets `off` (rows + 1
/// entries), cut into `chunks` contiguous chunks of about equal volume:
/// chunk c starts at the first row whose offset reaches c / chunks of the
/// total, and runs on thread c when chunks > 1. A row is never split.
template <typename T, typename Fn>
void for_each_row_chunk(std::span<const T> off, int chunks, Fn&& fn) {
  const std::size_t rows = off.size() - 1;
  const auto cut = [&](int c) {
    if (c == chunks) return rows;
    const T target = off[rows] * static_cast<T>(c) / static_cast<T>(chunks);
    return static_cast<std::size_t>(
        std::lower_bound(off.begin(), off.end(), target) - off.begin());
  };
#pragma omp parallel for schedule(static) num_threads(chunks) if (chunks > 1)
  for (int c = 0; c < chunks; ++c) {
    for (std::size_t i = cut(c); i < cut(c + 1); ++i) fn(i, c);
  }
}

/// Runs `fn(i)` for i in [begin, end). Parallel when the range is at least
/// `grain`; serial otherwise (avoids fork overhead on tiny inner loops)
/// and whenever parallelism_allowed() is false (nested regions).
template <typename Index, typename Fn>
void parallel_for(Index begin, Index end, Fn&& fn,
                  std::int64_t grain = 2048) {
  const auto lo = static_cast<std::int64_t>(begin);
  const auto hi = static_cast<std::int64_t>(end);
  if (hi - lo < grain || !parallelism_allowed()) {
    for (std::int64_t i = lo; i < hi; ++i) fn(static_cast<Index>(i));
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::int64_t i = lo; i < hi; ++i) fn(static_cast<Index>(i));
}

/// Map-reduce over [begin, end): accumulates `map(i)` into per-thread
/// accumulators with `combine`, then folds them into `init`.
template <typename T, typename Index, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(Index begin, Index end, T init, Map&& map,
                                Combine&& combine) {
  const auto lo = static_cast<std::int64_t>(begin);
  const auto hi = static_cast<std::int64_t>(end);
  T result = std::move(init);
  if (hi - lo < 2048 || !parallelism_allowed()) {
    for (std::int64_t i = lo; i < hi; ++i)
      result = combine(std::move(result), map(static_cast<Index>(i)));
    return result;
  }
#pragma omp parallel
  {
    T local{};
    bool has_local = false;
#pragma omp for schedule(static) nowait
    for (std::int64_t i = lo; i < hi; ++i) {
      if (!has_local) {
        local = map(static_cast<Index>(i));
        has_local = true;
      } else {
        local = combine(std::move(local), map(static_cast<Index>(i)));
      }
    }
#pragma omp critical(parlap_reduce)
    {
      if (has_local) result = combine(std::move(result), std::move(local));
    }
  }
  return result;
}

}  // namespace parlap
