#include "linalg/laplacian_op.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/for_each.hpp"
#include "support/check.hpp"

namespace parlap {

void LaplacianOperator::apply(std::span<const double> x,
                              std::span<double> y) const {
  const Vertex n = dimension();
  PARLAP_CHECK(x.size() == static_cast<std::size_t>(n));
  PARLAP_CHECK(y.size() == static_cast<std::size_t>(n));
  parallel_for(Vertex{0}, n, [&](Vertex u) {
    const auto nbrs = csr_.neighbors(u);
    const auto ws = csr_.weights(u);
    double acc = csr_.weighted_degree(u) * x[static_cast<std::size_t>(u)];
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      acc -= ws[k] * x[static_cast<std::size_t>(nbrs[k])];
    }
    y[static_cast<std::size_t>(u)] = acc;
  });
}

void LaplacianOperator::apply(const Panel& x, Panel& y) const {
  const Vertex n = dimension();
  PARLAP_CHECK(x.rows() == static_cast<std::size_t>(n));
  y.resize(x.rows(), x.cols());
  if (x.cols() == 1) {  // scalar fast path: register accumulator
    apply(x.col(0), y.col(0));
    return;
  }
  const std::size_t nz = x.rows();
  const std::size_t k = x.cols();
  const double* xd = x.data();
  double* yd = y.data();
  // Column chunks keep the per-row accumulators in a small stack buffer
  // while the row's CSR entries stream once; each column's arithmetic
  // order equals the scalar apply's.
  constexpr std::size_t kColChunk = 8;
  parallel_for(Vertex{0}, n, [&](Vertex u) {
    const auto uz = static_cast<std::size_t>(u);
    const auto nbrs = csr_.neighbors(u);
    const auto ws = csr_.weights(u);
    const double wdeg = csr_.weighted_degree(u);
    for (std::size_t c0 = 0; c0 < k; c0 += kColChunk) {
      const std::size_t cw = std::min(kColChunk, k - c0);
      double acc[kColChunk];
      for (std::size_t cc = 0; cc < cw; ++cc) {
        acc[cc] = wdeg * xd[(c0 + cc) * nz + uz];
      }
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const auto t = static_cast<std::size_t>(nbrs[e]);
        const double we = ws[e];
        for (std::size_t cc = 0; cc < cw; ++cc) {
          acc[cc] -= we * xd[(c0 + cc) * nz + t];
        }
      }
      for (std::size_t cc = 0; cc < cw; ++cc) {
        yd[(c0 + cc) * nz + uz] = acc[cc];
      }
    }
  });
}

double LaplacianOperator::quadratic_form(std::span<const double> x) const {
  // Summed edge-wise: exactly non-negative, unlike x' (Lx) which can go
  // negative by rounding near the kernel.
  const Vertex n = dimension();
  PARLAP_CHECK(x.size() == static_cast<std::size_t>(n));
  double s = 0.0;
  deterministic_sums(x.size(), {&s, 1}, [&](std::size_t u, std::size_t) {
    const auto nbrs = csr_.neighbors(static_cast<Vertex>(u));
    const auto ws = csr_.weights(static_cast<Vertex>(u));
    double acc = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const double d = x[u] - x[static_cast<std::size_t>(nbrs[k])];
      acc += ws[k] * d * d;
    }
    return acc;
  });
  return 0.5 * s;
}

double LaplacianOperator::laplacian_norm(std::span<const double> x) const {
  return std::sqrt(quadratic_form(x));
}

}  // namespace parlap
