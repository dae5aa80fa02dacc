// Dense symmetric linear algebra.
//
// Two roles: (a) the O(1)-size base-case solve of BlockCholesky (the chain
// stops at <= 100 vertices, Thm 3.9-(3)), a grounded GTH factorization
// applied as triangular sweeps, also behind the `dense` baseline; (b) the
// test oracle — exact pseudo-inverses, Schur complements, effective
// resistances, and Loewner-order certificates against which the
// randomized algorithms are verified on small instances.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/multigraph.hpp"
#include "linalg/vector_ops.hpp"
#include "support/types.hpp"

namespace parlap {

/// Row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              0.0) {}

  static DenseMatrix identity(int n);

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(int i, int j) {
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(j)];
  }
  [[nodiscard]] double operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(j)];
  }

  /// Contiguous row-major storage (rows()*cols() doubles).
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  [[nodiscard]] DenseMatrix transpose() const;
  [[nodiscard]] DenseMatrix multiply(const DenseMatrix& other) const;
  [[nodiscard]] DenseMatrix add(const DenseMatrix& other, double scale = 1.0) const;
  [[nodiscard]] Vector apply(std::span<const double> x) const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;
  /// max_ij |A_ij - B_ij|
  [[nodiscard]] double max_abs_diff(const DenseMatrix& other) const;
  /// Symmetrizes in place: A <- (A + A') / 2.
  void symmetrize();

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// A = vectors * diag(values) * vectors'. Columns of `vectors` are
/// orthonormal eigenvectors; `values` ascending.
struct EigenDecomposition {
  Vector values;
  DenseMatrix vectors;
};

/// Cyclic Jacobi rotations; intended for n up to a few hundred.
[[nodiscard]] EigenDecomposition symmetric_eigen(DenseMatrix a,
                                                 int max_sweeps = 64);

/// Moore-Penrose pseudo-inverse of a symmetric matrix; eigenvalues with
/// |lambda| <= rel_tol * max|lambda| are treated as kernel.
[[nodiscard]] DenseMatrix pseudo_inverse(const DenseMatrix& a,
                                         double rel_tol = 1e-10);

/// Grounded Grassmann-Taksar-Heyman (1985) factorization of a graph
/// Laplacian, eliminating vertices in natural order: L = U D U' with U
/// unit lower triangular, U(i, k) = -w_ik / d_k. Each pivot d_k is the
/// sum of vertex k's remaining edge weights and each Schur update adds a
/// nonnegative weight, so no step subtracts. A zero pivot marks its
/// component's ground vertex (the component's last vertex), so the rank
/// comes from connectivity, not from a threshold.
struct GroundedFactor {
  Vertex n = 0;
  Vertex components = 0;
  /// Every value the solve reads, in one array so a caller can narrow it
  /// in one pass: the n(n-1)/2 multipliers w_ik / d_k packed by column
  /// (column k's rows k+1..n-1 consecutive), then the n reciprocal pivots
  /// (0 at ground vertices), then each component's 1/size.
  std::vector<double> values;
  std::vector<Vertex> component;  ///< connected_components() label per vertex
};

/// Factors the Laplacian of `g`, always in fp64. Components come from a
/// union-find over g's edges.
[[nodiscard]] GroundedFactor grounded_factor(MultigraphView g);

/// x <- L^+ x for `cols` interleaved columns (element (i, c) at
/// i*cols + c), in place: subtract each component's mean, forward sweep,
/// scale by 1/d, backward sweep, subtract the means again. That is
/// P G P with G = U'^-1 D^+ U^-1 a generalized inverse of L and P the
/// projection off ker L, which equals L^+ exactly. `values` is
/// GroundedFactor::values in storage type T; `sums` is scratch for
/// components*cols values. Each column's arithmetic is the same at
/// every width.
template <typename T>
void grounded_solve(Vertex n, Vertex components, const T* values,
                    const Vertex* component, std::size_t cols, T* x,
                    T* sums);

/// Cholesky factor (lower triangular) of a symmetric PD matrix. Throws on a
/// non-positive pivot.
[[nodiscard]] DenseMatrix cholesky_factor(const DenseMatrix& a);
[[nodiscard]] Vector cholesky_solve(const DenseMatrix& chol,
                                    std::span<const double> b);

/// Dense Laplacian of a multi-graph.
[[nodiscard]] DenseMatrix laplacian_dense(MultigraphView g);

/// Exact Schur complement of symmetric `m` onto index set `keep` (the
/// paper's C), eliminating the complement F: SC = M_CC - M_CF M_FF^-1 M_FC.
/// Rows/cols of the result follow the order of `keep`.
[[nodiscard]] DenseMatrix schur_complement_dense(const DenseMatrix& m,
                                                 std::span<const Vertex> keep);

/// Exact leverage score tau(e) = w(e) * b_e' L^+ b_e for every multi-edge.
[[nodiscard]] Vector leverage_scores_dense(const Multigraph& g);

/// Extreme generalized eigenvalues of (A, B) restricted to range(B), i.e.
/// the spectrum of B^{+/2} A B^{+/2} off the joint kernel, plus the largest
/// leakage of A on ker(B) (should be ~0 when ker(B) subset ker(A)).
struct SpectralBounds {
  double lo = 0.0;
  double hi = 0.0;
  double kernel_leakage = 0.0;
};
[[nodiscard]] SpectralBounds relative_spectral_bounds(const DenseMatrix& a,
                                                      const DenseMatrix& b,
                                                      double kernel_tol = 1e-9);

/// Certifies A ~eps B in the paper's sense: e^-eps B <= A <= e^eps B
/// (Loewner), within numerical slack `tol`.
[[nodiscard]] bool is_eps_approximation(const DenseMatrix& a,
                                        const DenseMatrix& b, double eps,
                                        double tol = 1e-7);

}  // namespace parlap
