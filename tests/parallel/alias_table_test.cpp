// Alias-table tests: exact distribution recovery (chi-squared), zero
// weights, degenerate sizes — the correctness of every random walk step
// rests on this sampler.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "parallel/alias_table.hpp"
#include "support/rng.hpp"

namespace parlap {
namespace {

std::vector<double> empirical_distribution(const AliasTable& table,
                                           std::size_t k, int draws,
                                           std::uint64_t seed) {
  std::vector<double> freq(k, 0.0);
  Rng rng(seed, RngTag::kTest, 0);
  for (int i = 0; i < draws; ++i) {
    ++freq[static_cast<std::size_t>(table.sample(rng))];
  }
  for (auto& f : freq) f /= draws;
  return freq;
}

TEST(AliasTable, SingleItem) {
  const std::vector<double> w{2.5};
  AliasTable t(w);
  Rng rng(1, RngTag::kTest, 0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(t.sample(rng), 0);
  EXPECT_DOUBLE_EQ(t.total_weight(), 2.5);
}

TEST(AliasTable, UniformWeights) {
  const std::vector<double> w(8, 1.0);
  AliasTable t(w);
  const auto freq = empirical_distribution(t, 8, 80000, 2);
  for (const double f : freq) EXPECT_NEAR(f, 0.125, 0.01);
}

TEST(AliasTable, SkewedWeights) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable t(w);
  const auto freq = empirical_distribution(t, 4, 200000, 3);
  EXPECT_NEAR(freq[0], 0.1, 0.01);
  EXPECT_NEAR(freq[1], 0.2, 0.01);
  EXPECT_NEAR(freq[2], 0.3, 0.01);
  EXPECT_NEAR(freq[3], 0.4, 0.01);
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const std::vector<double> w{0.0, 1.0, 0.0, 1.0};
  AliasTable t(w);
  Rng rng(4, RngTag::kTest, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::int32_t s = t.sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTable, ExtremeWeightRatio) {
  const std::vector<double> w{1e-12, 1.0};
  AliasTable t(w);
  Rng rng(5, RngTag::kTest, 0);
  int zero_count = 0;
  for (int i = 0; i < 100000; ++i) zero_count += t.sample(rng) == 0 ? 1 : 0;
  EXPECT_LE(zero_count, 2);  // p ~ 1e-12
}

TEST(AliasTable, RejectsNegativeWeight) {
  const std::vector<double> w{1.0, -0.5};
  EXPECT_THROW(AliasTable t(w), std::runtime_error);
}

TEST(AliasTable, RejectsAllZero) {
  const std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(AliasTable t(w), std::runtime_error);
}

TEST(AliasTable, ChiSquaredLargeTable) {
  std::vector<double> w(100);
  Rng wrng(6, RngTag::kTest, 1);
  double total = 0.0;
  for (auto& x : w) {
    x = wrng.next_in(0.1, 10.0);
    total += x;
  }
  AliasTable t(w);
  constexpr int kDraws = 1000000;
  std::vector<int> counts(w.size(), 0);
  Rng rng(6, RngTag::kTest, 2);
  for (int i = 0; i < kDraws; ++i) ++counts[static_cast<std::size_t>(t.sample(rng))];
  double chi2 = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double expected = kDraws * w[i] / total;
    chi2 += (counts[i] - expected) * (counts[i] - expected) / expected;
  }
  // 99 dof; 99.9th percentile ~ 148.
  EXPECT_LT(chi2, 160.0);
}

TEST(BuildAlias, FlatBuildMatchesOwningWrapper) {
  const std::vector<double> w{3.0, 1.0, 2.0};
  std::vector<double> prob(3);
  std::vector<std::int32_t> alias(3);
  const double total = build_alias(w, prob, alias);
  EXPECT_DOUBLE_EQ(total, 6.0);
  AliasTable t(w);
  Rng a(7, RngTag::kTest, 0);
  Rng b(7, RngTag::kTest, 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sample_alias(prob, alias, a), t.sample(b));
  }
}

/// Vose's method as written with a scaled copy of the weights and two
/// bucket vectors: the reference build_alias, which works in its output
/// arrays alone, must reproduce bit for bit.
void reference_vose(const std::vector<double>& w, std::vector<double>& prob,
                    std::vector<std::int32_t>& alias) {
  const auto n = static_cast<std::int32_t>(w.size());
  double total = 0.0;
  for (const double x : w) total += x;
  std::vector<double> scaled(w.size());
  std::vector<std::int32_t> small;
  std::vector<std::int32_t> large;
  for (std::int32_t i = 0; i < n; ++i) {
    const auto iz = static_cast<std::size_t>(i);
    scaled[iz] = w[iz] * static_cast<double>(n) / total;
    (scaled[iz] < 1.0 ? small : large).push_back(i);
  }
  prob.assign(w.size(), 0.0);
  alias.assign(w.size(), 0);
  while (!small.empty() && !large.empty()) {
    const std::int32_t s = small.back();
    small.pop_back();
    const std::int32_t l = large.back();
    const auto sz = static_cast<std::size_t>(s);
    const auto lz = static_cast<std::size_t>(l);
    prob[sz] = scaled[sz];
    alias[sz] = l;
    scaled[lz] -= 1.0 - scaled[sz];
    if (scaled[lz] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (const std::int32_t i : large) {
    prob[static_cast<std::size_t>(i)] = 1.0;
    alias[static_cast<std::size_t>(i)] = i;
  }
  for (const std::int32_t i : small) {
    prob[static_cast<std::size_t>(i)] = 1.0;
    alias[static_cast<std::size_t>(i)] = i;
  }
}

TEST(BuildAlias, InPlaceBuildMatchesBucketVectors) {
  std::vector<std::vector<double>> cases = {
      {2.5}, std::vector<double>(16, 0.7), std::vector<double>(1000, 1.0)};
  Rng rng(8, RngTag::kTest, 0);
  for (const std::size_t n : {2, 3, 31, 257, 4096}) {
    std::vector<double> w(n);
    for (double& x : w) {
      x = rng.next_double() < 0.25 ? 0.0 : rng.next_in(1e-3, 5.0);
    }
    w[n / 2] = 1.0;  // a positive total
    cases.push_back(std::move(w));
  }
  for (const std::vector<double>& w : cases) {
    std::vector<double> want_prob;
    std::vector<std::int32_t> want_alias;
    reference_vose(w, want_prob, want_alias);
    // Stale contents of the output arrays must not leak into the table.
    std::vector<double> prob(w.size(),
                             std::numeric_limits<double>::quiet_NaN());
    std::vector<std::int32_t> alias(w.size(), -7);
    (void)build_alias(w, prob, alias);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(prob[i]),
                std::bit_cast<std::uint64_t>(want_prob[i]))
          << "n " << w.size() << " entry " << i;
      EXPECT_EQ(alias[i], want_alias[i]) << "n " << w.size() << " entry " << i;
    }
    // The owning wrapper draws from the same table.
    const AliasTable t(w);
    Rng a(9, RngTag::kTest, w.size());
    Rng b(9, RngTag::kTest, w.size());
    for (int d = 0; d < 200; ++d) {
      EXPECT_EQ(sample_alias(prob, alias, a), t.sample(b));
    }
  }
}

}  // namespace
}  // namespace parlap
