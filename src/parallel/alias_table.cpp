#include "parallel/alias_table.hpp"

#include "support/check.hpp"

namespace parlap {

double build_alias(std::span<const double> weights, std::span<double> prob,
                   std::span<std::int32_t> alias) {
  const auto n = static_cast<std::int32_t>(weights.size());
  PARLAP_CHECK(n >= 1);
  PARLAP_CHECK(prob.size() == weights.size());
  PARLAP_CHECK(alias.size() == weights.size());

  double total = 0.0;
  for (const double w : weights) {
    PARLAP_CHECK_MSG(w >= 0.0, "negative sampling weight " << w);
    total += w;
  }
  PARLAP_CHECK_MSG(total > 0.0, "alias table requires positive total weight");

  // Vose's method: scale to mean 1, split into under-/over-full buckets,
  // pair each under-full bucket with an over-full donor. It runs in the
  // output arrays alone: prob holds the scaled weights until a bucket is
  // settled, and the two bucket stacks are lists linked through the alias
  // entries of their members, which are written only when a bucket
  // leaves its stack for good.
  constexpr std::int32_t kEnd = -1;
  std::int32_t small = kEnd;
  std::int32_t large = kEnd;
  const auto push = [&alias](std::int32_t& head, std::int32_t i) {
    alias[static_cast<std::size_t>(i)] = head;
    head = i;
  };
  const auto pop = [&alias](std::int32_t& head) {
    const std::int32_t i = head;
    head = alias[static_cast<std::size_t>(i)];
    return i;
  };
  for (std::int32_t i = 0; i < n; ++i) {
    const auto iz = static_cast<std::size_t>(i);
    prob[iz] = weights[iz] * static_cast<double>(n) / total;
    push(prob[iz] < 1.0 ? small : large, i);
  }

  while (small != kEnd && large != kEnd) {
    const auto s = static_cast<std::size_t>(pop(small));
    const std::int32_t l = large;
    const auto lz = static_cast<std::size_t>(l);
    alias[s] = l;
    prob[lz] -= 1.0 - prob[s];
    if (prob[lz] < 1.0) push(small, pop(large));
  }
  // Leftovers are exactly full up to rounding.
  for (std::int32_t* head : {&large, &small}) {
    while (*head != kEnd) {
      const std::int32_t i = pop(*head);
      prob[static_cast<std::size_t>(i)] = 1.0;
      alias[static_cast<std::size_t>(i)] = i;
    }
  }
  return total;
}

AliasTable::AliasTable(std::span<const double> weights)
    : prob_(weights.size()), alias_(weights.size()) {
  total_ = build_alias(weights, prob_, alias_);
}

}  // namespace parlap
