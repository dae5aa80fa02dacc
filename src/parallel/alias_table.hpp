// Walker/Vose alias method for weighted random sampling.
//
// This is the library's realization of the parallel weighted sampling
// primitive (Lemma 2.6, [HS19]): O(k) preprocessing per distribution and
// O(1) work per query. Distributions are built independently per vertex in
// parallel; queries draw from caller-supplied counter-based Rng streams so
// sampling is deterministic under any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace parlap {

/// Builds the alias structure for `weights` into `prob`/`alias` (all spans
/// must have equal length >= 1). Zero weights are allowed (never sampled);
/// the total must be positive. Returns the total weight. Works in `prob`
/// and `alias` alone and allocates nothing, so parallel regions call it
/// per row.
double build_alias(std::span<const double> weights, std::span<double> prob,
                   std::span<std::int32_t> alias);

/// Draws an index in [0, prob.size()) with probability proportional to the
/// weights the structure was built from. Uses exactly one u64 and one
/// double from `rng`.
inline std::int32_t sample_alias(std::span<const double> prob,
                                 std::span<const std::int32_t> alias,
                                 Rng& rng) {
  const auto k = static_cast<std::int32_t>(
      rng.next_below(static_cast<std::uint64_t>(prob.size())));
  const double coin = rng.next_double();
  return coin < prob[static_cast<std::size_t>(k)]
             ? k
             : alias[static_cast<std::size_t>(k)];
}

/// Owning convenience wrapper around one distribution.
class AliasTable {
 public:
  explicit AliasTable(std::span<const double> weights);

  [[nodiscard]] std::int32_t sample(Rng& rng) const {
    return sample_alias(prob_, alias_, rng);
  }
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }
  [[nodiscard]] double total_weight() const noexcept { return total_; }

 private:
  std::vector<double> prob_;
  std::vector<std::int32_t> alias_;
  double total_ = 0.0;
};

}  // namespace parlap
