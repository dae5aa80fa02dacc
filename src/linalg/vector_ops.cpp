#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/for_each.hpp"
#include "support/check.hpp"

namespace parlap {

double dot(std::span<const double> x, std::span<const double> y) {
  PARLAP_CHECK(x.size() == y.size());
  double s = 0.0;
  deterministic_sums(x.size(), {&s, 1},
                     [&](std::size_t i, std::size_t) { return x[i] * y[i]; });
  return s;
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double sum(std::span<const double> x) {
  double s = 0.0;
  deterministic_sums(x.size(), {&s, 1},
                     [&](std::size_t i, std::size_t) { return x[i]; });
  return s;
}

void axpy(double a, std::span<const double> x, std::span<double> y) {
  PARLAP_CHECK(x.size() == y.size());
  parallel_for(std::size_t{0}, x.size(),
               [&](std::size_t i) { y[i] += a * x[i]; });
}

void scale(std::span<double> x, double a) {
  parallel_for(std::size_t{0}, x.size(), [&](std::size_t i) { x[i] *= a; });
}

void assign(std::span<double> dst, std::span<const double> src) {
  PARLAP_CHECK(dst.size() == src.size());
  parallel_for(std::size_t{0}, dst.size(),
               [&](std::size_t i) { dst[i] = src[i]; });
}

void fill(std::span<double> x, double value) {
  parallel_for(std::size_t{0}, x.size(), [&](std::size_t i) { x[i] = value; });
}

void project_out_ones(std::span<double> x) {
  if (x.empty()) return;
  const double mean = sum(x) / static_cast<double>(x.size());
  parallel_for(std::size_t{0}, x.size(), [&](std::size_t i) { x[i] -= mean; });
}

void project_out_ones_per_component(std::span<double> x,
                                    std::span<const Vertex> label,
                                    Vertex num_components) {
  PARLAP_CHECK(x.size() == label.size());
  std::vector<double> comp_sum(static_cast<std::size_t>(num_components), 0.0);
  std::vector<std::int64_t> comp_size(static_cast<std::size_t>(num_components), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    comp_sum[static_cast<std::size_t>(label[i])] += x[i];
    ++comp_size[static_cast<std::size_t>(label[i])];
  }
  parallel_for(std::size_t{0}, x.size(), [&](std::size_t i) {
    const auto c = static_cast<std::size_t>(label[i]);
    x[i] -= comp_sum[c] / static_cast<double>(comp_size[c]);
  });
}

double max_abs_diff(std::span<const double> x, std::span<const double> y) {
  PARLAP_CHECK(x.size() == y.size());
  double m = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    m = std::max(m, std::abs(x[i] - y[i]));
  }
  return m;
}

}  // namespace parlap
