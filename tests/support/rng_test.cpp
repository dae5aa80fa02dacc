// Tests for the Philox counter-based RNG: determinism, stream
// independence, and distribution sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "support/rng.hpp"

namespace parlap {
namespace {

TEST(Philox, BlockIsDeterministic) {
  const auto a = Philox::block(1, 2, 3, 4);
  const auto b = Philox::block(1, 2, 3, 4);
  EXPECT_EQ(a, b);
}

TEST(Philox, BlockChangesWithEveryInput) {
  const auto base = Philox::block(1, 2, 3, 4);
  EXPECT_NE(base, Philox::block(2, 2, 3, 4));
  EXPECT_NE(base, Philox::block(1, 3, 3, 4));
  EXPECT_NE(base, Philox::block(1, 2, 4, 4));
  EXPECT_NE(base, Philox::block(1, 2, 3, 5));
}

TEST(Rng, SameKeySameStream) {
  Rng a(7, RngTag::kTest, 9);
  Rng b(7, RngTag::kTest, 9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentIndexDifferentStream) {
  Rng a(7, RngTag::kTest, 9);
  Rng b(7, RngTag::kTest, 10);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DifferentTagDifferentStream) {
  Rng a(7, RngTag::kTest, 9);
  Rng b(7, RngTag::kFiveDd, 9);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(1, RngTag::kTest, 0);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng(2, RngTag::kTest, 0);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.005);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(3, RngTag::kTest, 0);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowUniformChiSquared) {
  Rng rng(4, RngTag::kTest, 0);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  double chi2 = 0.0;
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 9 dof; 99.9th percentile ~ 27.9.
  EXPECT_LT(chi2, 30.0);
}

TEST(Rng, BitBalance) {
  Rng rng(5, RngTag::kTest, 0);
  int ones = 0;
  constexpr int kWords = 10000;
  for (int i = 0; i < kWords; ++i) ones += __builtin_popcountll(rng.next_u64());
  const double frac = static_cast<double>(ones) / (64.0 * kWords);
  EXPECT_NEAR(frac, 0.5, 0.005);
}

TEST(Rng, NoShortCycle) {
  Rng rng(6, RngTag::kTest, 0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.next_u64());
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Rng, BatchedFirstDrawsAreTheStream) {
  // Indices laid out as the terminal walks key theirs: the level in bits
  // 40-55, a slot below 2^40, a redraw's attempt from bit 56 up.
  std::vector<std::uint64_t> index;
  Rng pick(8, RngTag::kTest, 0);
  for (const std::uint64_t level : {0ull, 1ull, 9ull, 0xFFFFull}) {
    for (const std::uint64_t attempt : {0ull, 1ull, 2ull, 32ull, 255ull}) {
      for (const std::uint64_t slot :
           {0ull, 1ull, 511ull, 512ull, (1ull << 40) - 1}) {
        index.push_back(((level << 40) ^ slot) ^ (attempt << 56));
      }
      for (int k = 0; k < 500; ++k) {
        index.push_back(((level << 40) ^ pick.next_below(1ull << 40)) ^
                        (attempt << 56));
      }
    }
  }
  ASSERT_GE(index.size(), 10000u);

  constexpr std::uint64_t kSeed = 42;
  std::vector<std::uint64_t> first = index;
  std::vector<std::uint64_t> second(index.size());
  Rng::first_draws(kSeed, RngTag::kTerminalWalk, first, second);
  for (std::size_t n = 0; n < index.size(); ++n) {
    Rng stream(kSeed, RngTag::kTerminalWalk, index[n]);
    ASSERT_EQ(first[n], stream.next_u64()) << "index " << index[n];
    ASSERT_EQ(second[n], stream.next_u64()) << "index " << index[n];
    // A stream positioned at block 1 goes on exactly like the original,
    // through calls that take one draw or, where next_below rejects (about
    // half the time at bound 2^63 + 1), more.
    Rng resumed(kSeed, RngTag::kTerminalWalk, index[n], 1);
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(resumed.next_below(3), stream.next_below(3));
      ASSERT_EQ(resumed.next_double(), stream.next_double());
      ASSERT_EQ(resumed.next_u64(), stream.next_u64());
      ASSERT_EQ(resumed.next_below((1ull << 63) + 1),
                stream.next_below((1ull << 63) + 1));
      ASSERT_EQ(resumed.next_double(), stream.next_double());
    }
  }
}

TEST(SplitMix, InjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(splitmix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

}  // namespace
}  // namespace parlap
