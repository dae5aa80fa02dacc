#include "linalg/panel.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/kernels/kernels.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"

namespace parlap {

void panel_from_vectors(std::span<const Vector> bs, Panel& dst) {
  PARLAP_CHECK(!bs.empty());
  const std::size_t n = bs.front().size();
  dst.resize(n, bs.size());
  for (std::size_t c = 0; c < bs.size(); ++c) {
    PARLAP_CHECK_MSG(bs[c].size() == n,
                     "panel columns must agree: column " << c << " has "
                         << bs[c].size() << " rows, column 0 has " << n);
    std::copy(bs[c].begin(), bs[c].end(), dst.col(c).begin());
  }
}

void panel_to_vectors(const Panel& src, std::span<Vector> xs) {
  PARLAP_CHECK(xs.size() == src.cols());
  for (std::size_t c = 0; c < src.cols(); ++c) {
    const auto col = src.col(c);
    xs[c].assign(col.begin(), col.end());
  }
}

void panel_fill(Panel& p, double value) {
  std::fill(p.data(), p.data() + p.rows() * p.cols(), value);
}

void panel_assign(Panel& dst, const Panel& src) {
  PARLAP_CHECK(dst.rows() == src.rows() && dst.cols() == src.cols());
  std::copy(src.data(), src.data() + src.rows() * src.cols(), dst.data());
}

void panel_axpy(double a, const Panel& x, Panel& y,
                std::span<const unsigned char> mask) {
  PARLAP_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  PARLAP_CHECK(mask.empty() || mask.size() == x.cols());
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  const double* xd = x.data();
  double* yd = y.data();
  kernels::for_row_blocks(n, [&, a](std::size_t lo, std::size_t hi) {
    for (std::size_t c = 0; c < k; ++c) {
      if (!mask.empty() && mask[c] == 0) continue;
      const double* xc = xd + c * n;
      double* yc = yd + c * n;
      for (std::size_t i = lo; i < hi; ++i) yc[i] += a * xc[i];
    }
  });
}

void panel_col_norms(const Panel& p, std::span<double> out) {
  panel_col_dots(p, p, out);
  for (double& v : out) v = std::sqrt(v);
}

void panel_col_dots(const Panel& a, const Panel& b, std::span<double> out) {
  PARLAP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  PARLAP_CHECK(out.size() == a.cols());
  const std::size_t n = a.rows();
  const double* ad = a.data();
  const double* bd = b.data();
  deterministic_sums(n, out, [&](std::size_t i, std::size_t c) {
    return ad[c * n + i] * bd[c * n + i];
  });
}

void panel_gather(const Panel& src, std::span<const Vertex> rows,
                  Panel& dst) {
  dst.resize(rows.size(), src.cols());
  const std::size_t n = src.rows();
  const std::size_t m = rows.size();
  const std::size_t k = src.cols();
  const double* sd = src.data();
  double* dd = dst.data();
  kernels::for_row_blocks(m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = 0; c < k; ++c) {
      const double* sc = sd + c * n;
      double* dc = dd + c * m;
      for (std::size_t i = lo; i < hi; ++i) {
        dc[i] = sc[static_cast<std::size_t>(rows[i])];
      }
    }
  });
}

void panel_scatter(const Panel& src, std::span<const Vertex> rows,
                   Panel& dst) {
  PARLAP_CHECK(src.rows() == rows.size() && src.cols() == dst.cols());
  const std::size_t n = dst.rows();
  const std::size_t m = rows.size();
  const std::size_t k = src.cols();
  const double* sd = src.data();
  double* dd = dst.data();
  kernels::for_row_blocks(m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = 0; c < k; ++c) {
      const double* sc = sd + c * m;
      double* dc = dd + c * n;
      for (std::size_t i = lo; i < hi; ++i) {
        dc[static_cast<std::size_t>(rows[i])] = sc[i];
      }
    }
  });
}

void panel_project_out_ones(Panel& p) {
  const std::size_t n = p.rows();
  const std::size_t k = p.cols();
  if (n == 0) return;
  double* d = p.data();
  std::vector<double> mean(k);
  deterministic_sums(
      n, mean, [&](std::size_t i, std::size_t c) { return d[c * n + i]; });
  for (double& m : mean) m /= static_cast<double>(n);
  kernels::for_row_blocks(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = 0; c < k; ++c) {
      double* col = d + c * n;
      for (std::size_t i = lo; i < hi; ++i) col[i] -= mean[c];
    }
  });
}

}  // namespace parlap
