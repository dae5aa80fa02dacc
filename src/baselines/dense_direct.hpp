// Exact dense solver — the ground-truth comparator for small instances
// (tests and the accuracy columns of benches E3/E7).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/multigraph.hpp"
#include "linalg/dense.hpp"

namespace parlap {

/// Exact L^+ via the grounded GTH factorization (linalg/dense.hpp);
/// O(n^3) setup, O(n^2) per solve.
class DenseDirectSolver {
 public:
  /// Factors the dense Laplacian of `g` immediately.
  explicit DenseDirectSolver(const Multigraph& g)
      : factor_(grounded_factor(g)) {}

  /// x = L^+ b.
  void solve(std::span<const double> b, std::span<double> x) const {
    std::copy(b.begin(), b.end(), x.begin());
    std::vector<double> sums(static_cast<std::size_t>(factor_.components));
    grounded_solve(factor_.n, factor_.components, factor_.values.data(),
                   factor_.component.data(), 1, x.data(), sums.data());
  }

 private:
  GroundedFactor factor_;
};

}  // namespace parlap
