// Parallel dense vector kernels.
//
// Reductions run through deterministic_sums (parallel/for_each.hpp):
// fixed-size chunks folded in chunk order, so results are bit-identical
// at every thread count.
#pragma once

#include <span>
#include <vector>

#include "support/types.hpp"

namespace parlap {

using Vector = std::vector<double>;

[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);
[[nodiscard]] double norm2(std::span<const double> x);
[[nodiscard]] double sum(std::span<const double> x);

/// y += a * x
void axpy(double a, std::span<const double> x, std::span<double> y);
/// x *= a
void scale(std::span<double> x, double a);
/// dst = src
void assign(std::span<double> dst, std::span<const double> src);
void fill(std::span<double> x, double value);

/// Projects out the all-ones kernel direction: x -= mean(x). For connected
/// Laplacians this maps x to the range of L.
void project_out_ones(std::span<double> x);

/// Projects out ones per component: x_i -= mean over component(label_i).
void project_out_ones_per_component(std::span<double> x,
                                    std::span<const Vertex> label,
                                    Vertex num_components);

/// max_i |x_i - y_i|
[[nodiscard]] double max_abs_diff(std::span<const double> x,
                                  std::span<const double> y);

}  // namespace parlap
