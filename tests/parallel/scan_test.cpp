// Prefix-scan tests including the parallel path (large inputs) against the
// trivially correct serial computation.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "parallel/for_each.hpp"
#include "parallel/scan.hpp"

namespace parlap {
namespace {

TEST(Scan, SmallSerialPath) {
  std::vector<std::int64_t> v{3, 1, 4, 1, 5};
  const std::int64_t total = exclusive_scan(std::span<std::int64_t>(v));
  EXPECT_EQ(total, 14);
  EXPECT_EQ(v, (std::vector<std::int64_t>{0, 3, 4, 8, 9}));
}

TEST(Scan, WithInit) {
  std::vector<std::int64_t> v{1, 1, 1};
  const std::int64_t total =
      exclusive_scan(std::span<std::int64_t>(v), std::int64_t{10});
  EXPECT_EQ(total, 13);
  EXPECT_EQ(v, (std::vector<std::int64_t>{10, 11, 12}));
}

TEST(Scan, Empty) {
  std::vector<std::int64_t> v;
  EXPECT_EQ(exclusive_scan(std::span<std::int64_t>(v)), 0);
}

class ScanSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSizeTest, MatchesSerialReference) {
  const std::size_t n = GetParam();
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::int64_t>((i * 2654435761u) % 97);
  }
  std::vector<std::int64_t> expected(n);
  std::int64_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = run;
    run += v[i];
  }
  const std::int64_t total = exclusive_scan(std::span<std::int64_t>(v));
  EXPECT_EQ(total, run);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizeTest,
                         ::testing::Values(1, 2, 1000, (1 << 14) - 1,
                                           1 << 14, (1 << 14) + 1, 1 << 17,
                                           (1 << 20) + 13));

// A scan large enough to fork, called where it must not: inside a
// parallel region (nested regions get a team of one) and under a
// SerialScope. Both must still scan every entry.
TEST(Scan, InsideParallelRegionScansEverything) {
  constexpr std::size_t kN = std::size_t{1} << 15;
  std::vector<std::int64_t> v(kN, 1);
  std::int64_t total = 0;
#pragma omp parallel
#pragma omp single
  total = exclusive_scan(std::span<std::int64_t>(v));
  EXPECT_EQ(total, static_cast<std::int64_t>(kN));
  EXPECT_EQ(v.back(), static_cast<std::int64_t>(kN) - 1);
}

TEST(Scan, UnderSerialScopeScansEverything) {
  constexpr std::size_t kN = std::size_t{1} << 15;
  std::vector<std::int64_t> v(kN, 1);
  const SerialScope serial;
  EXPECT_EQ(exclusive_scan(std::span<std::int64_t>(v)),
            static_cast<std::int64_t>(kN));
  EXPECT_EQ(v.back(), static_cast<std::int64_t>(kN) - 1);
}

}  // namespace
}  // namespace parlap
