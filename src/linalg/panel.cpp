#include "linalg/panel.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/kernels/kernels.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"

namespace parlap {

namespace {

/// Per-column deterministic dots with the exact chunked_sum structure of
/// vector_ops (kReductionChunk rows per chunk, chunk partials folded in
/// chunk order, serial below one chunk), so panel_col_dots equals
/// dot(col, col) bit-for-bit at every dispatch level. Within a chunk the
/// dispatched kernel accumulates each column in row order (lane =
/// column).
void col_dots_chunked(const double* a, const double* b, std::size_t n,
                      std::size_t k, double* out) {
  const kernels::KernelTable& kt = kernels::active();
  constexpr std::size_t kChunk = kernels::kReductionChunk;
  if (n < kChunk) {
    kt.chunk_dots(a, b, 0, n, n, k, out);
    return;
  }
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<double> partial(chunks * k);
#pragma omp parallel for schedule(static)
  for (std::int64_t c = 0; c < static_cast<std::int64_t>(chunks); ++c) {
    const std::size_t lo = static_cast<std::size_t>(c) * kChunk;
    const std::size_t hi = std::min(n, lo + kChunk);
    kt.chunk_dots(a, b, lo, hi, n, k,
                  partial.data() + static_cast<std::size_t>(c) * k);
  }
  for (std::size_t c = 0; c < k; ++c) {
    double total = 0.0;
    for (std::size_t ch = 0; ch < chunks; ++ch) total += partial[ch * k + c];
    out[c] = total;
  }
}

/// out[c] = sum of column c with sum()'s chunk structure (serial below
/// one chunk, chunk partials folded in chunk order), so each column's
/// sum equals sum(p.col(c)) bit for bit; one pass serves every column.
void col_sums_chunked(const double* d, std::size_t n, std::size_t k,
                      double* out) {
  constexpr std::size_t kChunk = kernels::kReductionChunk;
  const auto chunk_sums = [&](std::size_t lo, std::size_t hi, double* part) {
    for (std::size_t c = 0; c < k; ++c) {
      const double* col = d + c * n;
      double s = 0.0;
      for (std::size_t i = lo; i < hi; ++i) s += col[i];
      part[c] = s;
    }
  };
  if (n < kChunk) {
    chunk_sums(0, n, out);
    return;
  }
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<double> partial(chunks * k);
#pragma omp parallel for schedule(static)
  for (std::int64_t c = 0; c < static_cast<std::int64_t>(chunks); ++c) {
    const std::size_t lo = static_cast<std::size_t>(c) * kChunk;
    chunk_sums(lo, std::min(n, lo + kChunk),
               partial.data() + static_cast<std::size_t>(c) * k);
  }
  for (std::size_t c = 0; c < k; ++c) {
    double total = 0.0;
    for (std::size_t ch = 0; ch < chunks; ++ch) total += partial[ch * k + c];
    out[c] = total;
  }
}

}  // namespace

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
  const kernels::KernelTable& kt = kernels::active();
  const unsigned char* m = mask.empty() ? nullptr : mask.data();
  kernels::for_row_blocks(n, [&](std::size_t lo, std::size_t hi) {
    kt.axpy_cols(a, xd, yd, lo, hi, n, k, m);
  });
}

void panel_col_norms(const Panel& p, std::span<double> out) {
  PARLAP_CHECK(out.size() == p.cols());
  col_dots_chunked(p.data(), p.data(), p.rows(), p.cols(), out.data());
  for (std::size_t c = 0; c < p.cols(); ++c) out[c] = std::sqrt(out[c]);
}

void panel_col_dots(const Panel& a, const Panel& b, std::span<double> out) {
  PARLAP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  PARLAP_CHECK(out.size() == a.cols());
  col_dots_chunked(a.data(), b.data(), a.rows(), a.cols(), out.data());
}

void panel_gather_rows(const Panel& src, std::span<const Vertex> rows,
                       Panel& dst) {
  dst.resize(rows.size(), src.cols());
  const std::size_t n = src.rows();
  const std::size_t m = rows.size();
  const std::size_t k = src.cols();
  const double* sd = src.data();
  double* dd = dst.data();
  const kernels::KernelTable& kt = kernels::active();
  kernels::for_row_blocks(m, [&](std::size_t lo, std::size_t hi) {
    kt.gather_rows(sd, n, rows.data(), lo, hi, m, k, dd);
  });
}

void panel_scatter_rows(const Panel& src, std::span<const Vertex> rows,
                        Panel& dst) {
  PARLAP_CHECK(src.rows() == rows.size() && src.cols() == dst.cols());
  const std::size_t n = dst.rows();
  const std::size_t m = rows.size();
  const std::size_t k = src.cols();
  const double* sd = src.data();
  double* dd = dst.data();
  const kernels::KernelTable& kt = kernels::active();
  kernels::for_row_blocks(m, [&](std::size_t lo, std::size_t hi) {
    kt.scatter_rows(sd, m, rows.data(), lo, hi, n, k, dd);
  });
}

void panel_project_out_ones(Panel& p) {
  const std::size_t n = p.rows();
  const std::size_t k = p.cols();
  if (n == 0) return;
  std::vector<double> mean(k);
  col_sums_chunked(p.data(), n, k, mean.data());
  for (double& m : mean) m /= static_cast<double>(n);
  double* d = p.data();
  kernels::for_row_blocks(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = 0; c < k; ++c) {
      double* col = d + c * n;
      for (std::size_t i = lo; i < hi; ++i) col[i] -= mean[c];
    }
  });
}

}  // namespace parlap
