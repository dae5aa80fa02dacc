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
#include <vector>

#include <omp.h>

namespace parlap {

namespace detail {
/// Depth of SerialScope nesting on this thread (0 = parallelism allowed).
inline thread_local int serial_scope_depth = 0;
}  // namespace detail

/// RAII guard that forces the parallel_for / deterministic_sums /
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

/// Rows per chunk of deterministic_sums. Fixed, so neither the chunk
/// partials nor their fold order depend on the thread count.
inline constexpr std::size_t kReductionChunk = std::size_t{1} << 14;

/// Deterministic per-column sums: out[c] = sum of term(i, c) over rows
/// i in [0, n), for every c < out.size(). Each column sums in row order
/// within fixed kReductionChunk-row chunks, and the chunk partials fold
/// in chunk order, so the bits are the same at every thread count and
/// column c of a k-column call equals a one-column call on that column.
/// Below one chunk the sum is serial; above, the chunks fork when
/// parallelism_allowed(). Use this, never an ad-hoc OpenMP reduction,
/// whenever a float sum can influence control flow.
template <typename Term>
void deterministic_sums(std::size_t n, std::span<double> out, Term&& term) {
  const std::size_t k = out.size();
  const auto chunk_sums = [&](std::size_t lo, std::size_t hi, double* part) {
    for (std::size_t c = 0; c < k; ++c) {
      double s = 0.0;
      for (std::size_t i = lo; i < hi; ++i) s += term(i, c);
      part[c] = s;
    }
  };
  if (n < kReductionChunk) {
    chunk_sums(0, n, out.data());
    return;
  }
  const std::size_t chunks = (n + kReductionChunk - 1) / kReductionChunk;
  std::vector<double> partial(chunks * k);
  parallel_for(
      std::size_t{0}, chunks,
      [&](std::size_t ch) {
        const std::size_t lo = ch * kReductionChunk;
        chunk_sums(lo, std::min(n, lo + kReductionChunk),
                   partial.data() + ch * k);
      },
      /*grain=*/2);
  for (std::size_t c = 0; c < k; ++c) {
    double total = 0.0;
    for (std::size_t ch = 0; ch < chunks; ++ch) total += partial[ch * k + c];
    out[c] = total;
  }
}

}  // namespace parlap
