#include <gtest/gtest.h>

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

TEST(ParallelReduce, SumLarge) {
  constexpr std::int64_t kN = 1 << 20;
  const std::int64_t total = parallel_reduce(
      std::int64_t{0}, kN, std::int64_t{0},
      [](std::int64_t i) { return i; },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(total, kN * (kN - 1) / 2);
}

TEST(ParallelReduce, MaxSmall) {
  const int result = parallel_reduce(
      0, 100, -1, [](int i) { return (i * 37) % 101; },
      [](int a, int b) { return a > b ? a : b; });
  EXPECT_EQ(result, 100);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  const int result = parallel_reduce(
      0, 0, 42, [](int) { return 0; }, [](int a, int b) { return a + b; });
  EXPECT_EQ(result, 42);
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
    const std::int64_t total = parallel_reduce(
        std::int64_t{0}, std::int64_t{1} << 14, std::int64_t{0},
        [](std::int64_t i) { return i; },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    if (total != (std::int64_t{1} << 14) * ((std::int64_t{1} << 14) - 1) / 2) {
      ++bad;
    }
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(SerialScope, ReduceUnderScopeMatchesParallel) {
  constexpr std::int64_t kN = 1 << 20;
  const auto run = [] {
    return parallel_reduce(
        std::int64_t{0}, kN, std::int64_t{0},
        [](std::int64_t i) { return i % 7; },
        [](std::int64_t a, std::int64_t b) { return a + b; });
  };
  const std::int64_t open = run();
  SerialScope guard;
  EXPECT_EQ(run(), open);
}

}  // namespace
}  // namespace parlap
