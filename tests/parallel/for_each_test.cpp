#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "parallel/for_each.hpp"

namespace parlap {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce) {
  constexpr std::int64_t kN = 1 << 18;
  std::vector<std::int32_t> hits(kN, 0);
  parallel_for(std::int64_t{0}, kN, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const auto h : hits) ASSERT_EQ(h, 1);
}

TEST(ParallelFor, SerialPathSmallRange) {
  std::vector<int> order;
  parallel_for(0, 10, [&](int i) { order.push_back(i); });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // below grain => sequential in order
}

TEST(ParallelFor, EmptyRange) {
  bool ran = false;
  parallel_for(5, 5, [&](int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(DeterministicSums, FoldsRowOrderChunksInChunkOrder) {
  // Three columns over five full chunks and a short sixth: each column
  // is summed in row order per kReductionChunk rows, and the partials
  // fold in chunk order from 0.0. On these terms a reversed fold changes
  // every column's bits.
  constexpr std::size_t kN = 5 * kReductionChunk + 777;
  const auto term = [](std::size_t i, std::size_t c) {
    return static_cast<double>((i * 2654435761u + c * 97) % 1000003) /
               1000003.0 -
           0.5;
  };
  std::vector<double> got(3);
  deterministic_sums(kN, got, term);
  for (std::size_t c = 0; c < 3; ++c) {
    double want = 0.0;
    for (std::size_t lo = 0; lo < kN; lo += kReductionChunk) {
      double part = 0.0;
      for (std::size_t i = lo; i < std::min(kN, lo + kReductionChunk); ++i) {
        part += term(i, c);
      }
      want += part;
    }
    EXPECT_EQ(got[c], want) << "column " << c;
  }
}

TEST(ThreadCount, Positive) { EXPECT_GE(thread_count(), 1); }

TEST(SerialScope, SuppressesParallelism) {
  EXPECT_TRUE(parallelism_allowed());
  {
    SerialScope guard;
    EXPECT_FALSE(parallelism_allowed());
    // A large range must still run — in submission order, proving the
    // serial fallback was taken.
    constexpr std::int64_t kN = 1 << 16;
    std::int64_t expected_next = 0;
    bool ordered = true;
    parallel_for(std::int64_t{0}, kN, [&](std::int64_t i) {
      ordered = ordered && (i == expected_next);
      ++expected_next;
    });
    EXPECT_TRUE(ordered);
    EXPECT_EQ(expected_next, kN);
    {
      SerialScope nested;  // nesting stacks, it does not toggle
      EXPECT_FALSE(parallelism_allowed());
    }
    EXPECT_FALSE(parallelism_allowed());
  }
  EXPECT_TRUE(parallelism_allowed());
}

TEST(SerialScope, NestedOmpRegionFallsBackToSerial) {
  // Inside an OpenMP parallel region every wrapper must refuse to fork a
  // nested team; the serial fallback keeps iteration order.
  std::atomic<int> bad{0};
#pragma omp parallel num_threads(2)
  {
    EXPECT_FALSE(parallelism_allowed());
    std::int64_t expected_next = 0;
    parallel_for(std::int64_t{0}, std::int64_t{1} << 14, [&](std::int64_t i) {
      if (i != expected_next) ++bad;
      ++expected_next;
    });
    // Two reduction chunks: the sum would fork if it were allowed to.
    constexpr std::size_t kRows = 2 * kReductionChunk;
    std::size_t next_row = 0;
    double total = 0.0;
    deterministic_sums(kRows, {&total, 1}, [&](std::size_t i, std::size_t) {
      if (i != next_row) ++bad;
      ++next_row;
      return static_cast<double>(i);
    });
    if (total != static_cast<double>(kRows * (kRows - 1) / 2)) ++bad;
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(SerialScope, ReduceUnderScopeMatchesParallel) {
  constexpr std::size_t kN = std::size_t{1} << 20;
  const auto run = [] {
    std::vector<double> out(3);
    deterministic_sums(kN, out, [](std::size_t i, std::size_t c) {
      return 0.1 * static_cast<double>((i + c) % 7);
    });
    return out;
  };
  const std::vector<double> open = run();
  SerialScope guard;
  EXPECT_EQ(run(), open);
}

}  // namespace
}  // namespace parlap
