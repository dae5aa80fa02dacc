#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "graph/connectivity.hpp"
#include "support/check.hpp"

namespace parlap {

DenseMatrix DenseMatrix::identity(int n) {
  DenseMatrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix t(cols_, rows_);
  for (int i = 0; i < rows_; ++i)
    for (int j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  PARLAP_CHECK(cols_ == other.rows_);
  DenseMatrix out(rows_, other.cols_);
  for (int i = 0; i < rows_; ++i) {
    for (int k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (int j = 0; j < other.cols_; ++j) out(i, j) += a * other(k, j);
    }
  }
  return out;
}

DenseMatrix DenseMatrix::add(const DenseMatrix& other, double s) const {
  PARLAP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  DenseMatrix out = *this;
  for (int i = 0; i < rows_; ++i)
    for (int j = 0; j < cols_; ++j) out(i, j) += s * other(i, j);
  return out;
}

Vector DenseMatrix::apply(std::span<const double> x) const {
  PARLAP_CHECK(x.size() == static_cast<std::size_t>(cols_));
  Vector y(static_cast<std::size_t>(rows_), 0.0);
  for (int i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (int j = 0; j < cols_; ++j) acc += (*this)(i, j) * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

double DenseMatrix::frobenius_norm() const {
  double s = 0.0;
  for (int i = 0; i < rows_; ++i)
    for (int j = 0; j < cols_; ++j) s += (*this)(i, j) * (*this)(i, j);
  return std::sqrt(s);
}

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  PARLAP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double d = 0.0;
  for (int i = 0; i < rows_; ++i)
    for (int j = 0; j < cols_; ++j)
      d = std::max(d, std::abs((*this)(i, j) - other(i, j)));
  return d;
}

void DenseMatrix::symmetrize() {
  PARLAP_CHECK(rows_ == cols_);
  for (int i = 0; i < rows_; ++i)
    for (int j = i + 1; j < cols_; ++j) {
      const double v = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = v;
      (*this)(j, i) = v;
    }
}

EigenDecomposition symmetric_eigen(DenseMatrix a, int max_sweeps) {
  const int n = a.rows();
  PARLAP_CHECK(n == a.cols());
  DenseMatrix v = DenseMatrix::identity(n);

  auto off_norm = [&]() {
    double s = 0.0;
    for (int p = 0; p < n; ++p)
      for (int q = p + 1; q < n; ++q) s += a(p, q) * a(p, q);
    return std::sqrt(2.0 * s);
  };
  const double scale0 = std::max(a.frobenius_norm(), 1e-300);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_norm() <= 1e-14 * scale0) break;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        // Classical symmetric Jacobi rotation annihilating a(p, q).
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (int k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs ascending.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int i, int j) { return a(i, i) < a(j, j); });
  EigenDecomposition out;
  out.values.resize(static_cast<std::size_t>(n));
  out.vectors = DenseMatrix(n, n);
  for (int j = 0; j < n; ++j) {
    out.values[static_cast<std::size_t>(j)] = a(order[static_cast<std::size_t>(j)],
                                                order[static_cast<std::size_t>(j)]);
    for (int i = 0; i < n; ++i)
      out.vectors(i, j) = v(i, order[static_cast<std::size_t>(j)]);
  }
  return out;
}

DenseMatrix pseudo_inverse(const DenseMatrix& a, double rel_tol) {
  const EigenDecomposition eig = symmetric_eigen(a);
  const int n = a.rows();
  double max_abs = 0.0;
  for (const double lambda : eig.values) max_abs = std::max(max_abs, std::abs(lambda));
  const double cutoff = rel_tol * std::max(max_abs, 1e-300);
  DenseMatrix out(n, n);
  for (int k = 0; k < n; ++k) {
    const double lambda = eig.values[static_cast<std::size_t>(k)];
    if (std::abs(lambda) <= cutoff) continue;
    const double inv = 1.0 / lambda;
    for (int i = 0; i < n; ++i) {
      const double vik = eig.vectors(i, k);
      if (vik == 0.0) continue;
      for (int j = 0; j < n; ++j) out(i, j) += inv * vik * eig.vectors(j, k);
    }
  }
  return out;
}

namespace {

/// Entries of the packed strictly-lower triangle of an n x n matrix.
std::size_t packed_size(std::size_t n) { return n > 0 ? n * (n - 1) / 2 : 0; }

/// Offset of column k (rows k+1..n-1) in the packed triangle.
std::size_t packed_column(std::size_t n, std::size_t k) {
  return k * (n - 1) - k * (k - 1) / 2;
}

/// Partial sums per row of the backward sweep: its dot products add in
/// kLanes independent chains instead of one.
constexpr std::size_t kLanes = 4;

/// x(i, :) -= mean of x over i's component, for the W columns at x (row
/// i's at x + i*ld); `sums` holds components*W values.
template <std::size_t W, typename T, typename Ld>
void subtract_component_means(std::size_t n, std::size_t components,
                              const Vertex* component, const T* inv_size,
                              Ld ld, T* x, T* sums) {
  std::fill(sums, sums + components * W, T{0});
  for (std::size_t i = 0; i < n; ++i) {
    T* s = sums + static_cast<std::size_t>(component[i]) * W;
    const T* xi = x + i * ld;
    for (std::size_t c = 0; c < W; ++c) s[c] = static_cast<T>(s[c] + xi[c]);
  }
  for (std::size_t p = 0; p < components; ++p) {
    for (std::size_t c = 0; c < W; ++c) {
      sums[p * W + c] = static_cast<T>(sums[p * W + c] * inv_size[p]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const T* s = sums + static_cast<std::size_t>(component[i]) * W;
    T* xi = x + i * ld;
    for (std::size_t c = 0; c < W; ++c) xi[c] = static_cast<T>(xi[c] - s[c]);
  }
}

/// grounded_solve on the W columns at x (row i's at x + i*ld). Each
/// column's arithmetic is independent of W and ld. The column loops are
/// marked simd so the vectorizer packs columns (elementwise, so any
/// packing gives the same bits) instead of rows; a lone column (ld a
/// compile-time 1) vectorizes along its contiguous rows instead.
template <std::size_t W, typename T, typename Ld>
void grounded_block(std::size_t n, std::size_t components, const T* values,
                    const Vertex* component, Ld ld, T* x, T* sums) {
  const T* inv_pivot = values + packed_size(n);
  const T* inv_size = inv_pivot + n;
  subtract_component_means<W>(n, components, component, inv_size, ld, x,
                              sums);
  // Forward sweep, U z = x: column k adds m_ik z_k to every later row.
  // z_k is copied out so the stores to later rows need not reload it.
  for (std::size_t k = 0; k < n; ++k) {
    T xk[W];
    std::copy(x + k * ld, x + k * ld + W, xk);
    const T* mk = values + packed_column(n, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      T* xi = x + i * ld;
      const T mik = mk[i - k - 1];
#pragma omp simd
      for (std::size_t c = 0; c < W; ++c) {
        xi[c] = static_cast<T>(xi[c] + mik * xk[c]);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    T* xi = x + i * ld;
    for (std::size_t c = 0; c < W; ++c) {
      xi[c] = static_cast<T>(xi[c] * inv_pivot[i]);
    }
  }
  // Backward sweep, U' y = z: y_k = z_k + sum_{i>k} m_ik y_i over column
  // k's contiguous multipliers, term j = i-k-1 added into partial sum
  // j % kLanes; the partial sums are added in lane order.
  for (std::size_t k = n; k-- > 0;) {
    const T* mk = values + packed_column(n, k);
    const std::size_t len = n - k - 1;
    T acc[kLanes][W] = {};
    std::size_t j = 0;
    for (; j + kLanes <= len; j += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const T m = mk[j + l];
        const T* xi = x + (k + 1 + j + l) * ld;
#pragma omp simd
        for (std::size_t c = 0; c < W; ++c) {
          acc[l][c] = static_cast<T>(acc[l][c] + m * xi[c]);
        }
      }
    }
    for (std::size_t l = 0; j < len; ++j, ++l) {
      const T* xi = x + (k + 1 + j) * ld;
#pragma omp simd
      for (std::size_t c = 0; c < W; ++c) {
        acc[l][c] = static_cast<T>(acc[l][c] + mk[j] * xi[c]);
      }
    }
    T* xk = x + k * ld;
    for (std::size_t c = 0; c < W; ++c) {
      T sum = acc[0][c];
      for (std::size_t l = 1; l < kLanes; ++l) {
        sum = static_cast<T>(sum + acc[l][c]);
      }
      xk[c] = static_cast<T>(xk[c] + sum);
    }
  }
  subtract_component_means<W>(n, components, component, inv_size, ld, x,
                              sums);
}

}  // namespace

GroundedFactor grounded_factor(MultigraphView g) {
  const Vertex n = g.num_vertices();
  const auto nz = static_cast<std::size_t>(n);
  // Edge weights, upper triangle only: w(i, j) for i < j is the current
  // weight between i and j, summed over parallel edges in edge order.
  DenseMatrix w(n, n);
  const EdgeId m = g.num_edges();
  for (EdgeId e = 0; e < m; ++e) {
    const Vertex u = g.edge_u(e);
    const Vertex v = g.edge_v(e);
    if (u == v) continue;  // a self-loop is not part of L
    w(std::min(u, v), std::max(u, v)) += g.edge_weight(e);
  }

  // Components by union-find over the summed edges, one per vertex pair,
  // rather than over every parallel multi-edge of g.
  std::vector<Vertex> us;
  std::vector<Vertex> vs;
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = i + 1; j < n; ++j) {
      if (w(i, j) > 0.0) {
        us.push_back(i);
        vs.push_back(j);
      }
    }
  }
  const std::vector<Weight> ws(us.size(), 1.0);
  Components comps = connected_components(MultigraphView(n, us, vs, ws));
  GroundedFactor f;
  f.n = n;
  f.components = comps.count;
  f.component = std::move(comps.label);
  const std::size_t n_mult = packed_size(nz);
  f.values.assign(n_mult + nz + static_cast<std::size_t>(f.components), 0.0);
  double* inv_pivot = f.values.data() + n_mult;
  for (Vertex k = 0; k < n; ++k) {
    // The pivot is the sum of k's remaining weights, not the updated
    // diagonal: the GTH step that keeps every operation a sum.
    double d = 0.0;
    for (Vertex j = k + 1; j < n; ++j) d += w(k, j);
    if (d == 0.0) continue;  // k grounds its component: 1/d and U's column stay 0
    inv_pivot[k] = 1.0 / d;
    double* mk = f.values.data() + packed_column(nz, static_cast<std::size_t>(k));
    for (Vertex i = k + 1; i < n; ++i) mk[i - k - 1] = w(k, i) / d;
    // Schur complement onto k+1..n-1: w(i, j) += w(k, i) w(k, j) / d.
    for (Vertex i = k + 1; i < n; ++i) {
      const double mi = mk[i - k - 1];
      if (mi == 0.0) continue;
      for (Vertex j = i + 1; j < n; ++j) w(i, j) += mi * w(k, j);
    }
  }
  double* inv_size = inv_pivot + nz;
  for (const Vertex c : f.component) inv_size[c] += 1.0;
  for (Vertex c = 0; c < f.components; ++c) inv_size[c] = 1.0 / inv_size[c];
  return f;
}

template <typename T>
void grounded_solve(Vertex n, Vertex components, const T* values,
                    const Vertex* component, std::size_t cols, T* x,
                    T* sums) {
  const auto nz = static_cast<std::size_t>(n);
  const auto nc = static_cast<std::size_t>(components);
  // Columns go in blocks of compile-time width; the blocking changes no
  // column's arithmetic.
  if (cols == 1) {
    grounded_block<1>(nz, nc, values, component,
                      std::integral_constant<std::size_t, 1>{}, x, sums);
    return;
  }
  std::size_t c0 = 0;
  for (; c0 + 8 <= cols; c0 += 8) {
    grounded_block<8>(nz, nc, values, component, cols, x + c0, sums);
  }
  for (; c0 + 4 <= cols; c0 += 4) {
    grounded_block<4>(nz, nc, values, component, cols, x + c0, sums);
  }
  for (; c0 < cols; ++c0) {
    grounded_block<1>(nz, nc, values, component, cols, x + c0, sums);
  }
}

template void grounded_solve<double>(Vertex, Vertex, const double*,
                                     const Vertex*, std::size_t, double*,
                                     double*);
template void grounded_solve<float>(Vertex, Vertex, const float*,
                                    const Vertex*, std::size_t, float*,
                                    float*);

DenseMatrix cholesky_factor(const DenseMatrix& a) {
  const int n = a.rows();
  PARLAP_CHECK(n == a.cols());
  DenseMatrix l(n, n);
  for (int j = 0; j < n; ++j) {
    double d = a(j, j);
    for (int k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    PARLAP_CHECK_MSG(d > 0.0, "matrix not positive definite (pivot " << j
                                                                     << ")");
    l(j, j) = std::sqrt(d);
    for (int i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (int k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

Vector cholesky_solve(const DenseMatrix& chol, std::span<const double> b) {
  const int n = chol.rows();
  PARLAP_CHECK(b.size() == static_cast<std::size_t>(n));
  Vector y(b.begin(), b.end());
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < i; ++k) y[static_cast<std::size_t>(i)] -= chol(i, k) * y[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(i)] /= chol(i, i);
  }
  for (int i = n - 1; i >= 0; --i) {
    for (int k = i + 1; k < n; ++k) y[static_cast<std::size_t>(i)] -= chol(k, i) * y[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(i)] /= chol(i, i);
  }
  return y;
}

DenseMatrix laplacian_dense(MultigraphView g) {
  const int n = g.num_vertices();
  DenseMatrix l(n, n);
  const EdgeId m = g.num_edges();
  for (EdgeId e = 0; e < m; ++e) {
    const int u = g.edge_u(e);
    const int v = g.edge_v(e);
    const double w = g.edge_weight(e);
    l(u, u) += w;
    l(v, v) += w;
    l(u, v) -= w;
    l(v, u) -= w;
  }
  return l;
}

DenseMatrix schur_complement_dense(const DenseMatrix& m,
                                   std::span<const Vertex> keep) {
  const int n = m.rows();
  std::vector<bool> in_keep(static_cast<std::size_t>(n), false);
  for (const Vertex c : keep) {
    PARLAP_CHECK(c >= 0 && c < n);
    in_keep[static_cast<std::size_t>(c)] = true;
  }
  std::vector<Vertex> elim;
  for (Vertex i = 0; i < n; ++i)
    if (!in_keep[static_cast<std::size_t>(i)]) elim.push_back(i);
  const int nf = static_cast<int>(elim.size());
  const int nc = static_cast<int>(keep.size());

  DenseMatrix mff(nf, nf);
  DenseMatrix mfc(nf, nc);
  DenseMatrix out(nc, nc);
  for (int i = 0; i < nf; ++i)
    for (int j = 0; j < nf; ++j)
      mff(i, j) = m(elim[static_cast<std::size_t>(i)], elim[static_cast<std::size_t>(j)]);
  for (int i = 0; i < nf; ++i)
    for (int j = 0; j < nc; ++j)
      mfc(i, j) = m(elim[static_cast<std::size_t>(i)], keep[static_cast<std::size_t>(j)]);
  for (int i = 0; i < nc; ++i)
    for (int j = 0; j < nc; ++j)
      out(i, j) = m(keep[static_cast<std::size_t>(i)], keep[static_cast<std::size_t>(j)]);
  if (nf == 0) return out;

  // SC = M_CC - M_CF M_FF^{-1} M_FC; M_FF of a connected Laplacian with
  // nonempty C is PD, so Cholesky applies.
  const DenseMatrix chol = cholesky_factor(mff);
  for (int j = 0; j < nc; ++j) {
    Vector col(static_cast<std::size_t>(nf));
    for (int i = 0; i < nf; ++i) col[static_cast<std::size_t>(i)] = mfc(i, j);
    const Vector x = cholesky_solve(chol, col);
    for (int i = 0; i < nc; ++i) {
      double acc = 0.0;
      for (int k = 0; k < nf; ++k) acc += mfc(k, i) * x[static_cast<std::size_t>(k)];
      out(i, j) -= acc;
    }
  }
  DenseMatrix sym = out;
  sym.symmetrize();
  return sym;
}

Vector leverage_scores_dense(const Multigraph& g) {
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const EdgeId m = g.num_edges();
  Vector tau(static_cast<std::size_t>(m));
  for (EdgeId e = 0; e < m; ++e) {
    const int u = g.edge_u(e);
    const int v = g.edge_v(e);
    const double r = pinv(u, u) + pinv(v, v) - 2.0 * pinv(u, v);
    tau[static_cast<std::size_t>(e)] = g.edge_weight(e) * r;
  }
  return tau;
}

SpectralBounds relative_spectral_bounds(const DenseMatrix& a,
                                        const DenseMatrix& b,
                                        double kernel_tol) {
  const int n = a.rows();
  PARLAP_CHECK(n == a.cols() && n == b.rows() && n == b.cols());
  const EigenDecomposition eb = symmetric_eigen(b);
  double max_abs = 0.0;
  for (const double lambda : eb.values) max_abs = std::max(max_abs, std::abs(lambda));
  const double cutoff = kernel_tol * std::max(max_abs, 1e-300);

  std::vector<int> range_idx;
  SpectralBounds out;
  for (int k = 0; k < n; ++k) {
    if (std::abs(eb.values[static_cast<std::size_t>(k)]) > cutoff) {
      range_idx.push_back(k);
    } else {
      // Leakage of A on ker(B): |v' A v| should be ~0.
      Vector v(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = eb.vectors(i, k);
      const Vector av = a.apply(v);
      out.kernel_leakage = std::max(out.kernel_leakage, std::abs(dot(v, av)));
    }
  }
  const int r = static_cast<int>(range_idx.size());
  if (r == 0) return out;

  // S = Lambda_r^{-1/2} V_r' A V_r Lambda_r^{-1/2}.
  DenseMatrix vr(n, r);
  for (int j = 0; j < r; ++j) {
    const int k = range_idx[static_cast<std::size_t>(j)];
    const double scl = 1.0 / std::sqrt(eb.values[static_cast<std::size_t>(k)]);
    PARLAP_CHECK_MSG(eb.values[static_cast<std::size_t>(k)] > 0.0,
                     "relative bounds require PSD B");
    for (int i = 0; i < n; ++i) vr(i, j) = eb.vectors(i, k) * scl;
  }
  DenseMatrix s = vr.transpose().multiply(a.multiply(vr));
  s.symmetrize();
  const EigenDecomposition es = symmetric_eigen(std::move(s));
  out.lo = es.values.front();
  out.hi = es.values.back();
  return out;
}

bool is_eps_approximation(const DenseMatrix& a, const DenseMatrix& b,
                          double eps, double tol) {
  const SpectralBounds sb = relative_spectral_bounds(a, b);
  if (sb.kernel_leakage > tol) return false;
  return sb.lo >= std::exp(-eps) - tol && sb.hi <= std::exp(eps) + tol;
}

}  // namespace parlap
