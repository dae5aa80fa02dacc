// Dense oracle tests: the eigensolver, pseudo-inverse, Cholesky, the
// grounded GTH factor behind the chain's base solve, exact Schur
// complements, leverage scores, and the Loewner certificates every
// randomized-component test depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "support/rng.hpp"

namespace parlap {
namespace {

TEST(DenseMatrix, BasicOps) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 3.0;
  a(1, 1) = 4.0;
  const DenseMatrix at = a.transpose();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
  const DenseMatrix aa = a.multiply(a);
  EXPECT_DOUBLE_EQ(aa(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(aa(1, 1), 22.0);
  const DenseMatrix i = DenseMatrix::identity(2);
  EXPECT_DOUBLE_EQ(a.add(i, -1.0)(0, 0), 0.0);
  EXPECT_NEAR(a.frobenius_norm(), std::sqrt(30.0), 1e-12);
}

TEST(SymmetricEigen, DiagonalMatrix) {
  DenseMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  const EigenDecomposition eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-12);
}

TEST(SymmetricEigen, Known2x2) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const EigenDecomposition eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, ReconstructsMatrix) {
  Multigraph g = make_erdos_renyi(20, 60, 1);
  apply_weights(g, WeightModel::uniform(0.5, 2.0), 2);
  const DenseMatrix l = laplacian_dense(g);
  const EigenDecomposition eig = symmetric_eigen(l);
  // L == V diag(values) V'.
  const int n = l.rows();
  DenseMatrix lambda(n, n);
  for (int i = 0; i < n; ++i) lambda(i, i) = eig.values[static_cast<std::size_t>(i)];
  const DenseMatrix rec =
      eig.vectors.multiply(lambda).multiply(eig.vectors.transpose());
  EXPECT_LT(rec.max_abs_diff(l), 1e-9);
}

TEST(SymmetricEigen, OrthonormalVectors) {
  const Multigraph g = make_cycle(15);
  const EigenDecomposition eig = symmetric_eigen(laplacian_dense(g));
  const DenseMatrix vtv = eig.vectors.transpose().multiply(eig.vectors);
  EXPECT_LT(vtv.max_abs_diff(DenseMatrix::identity(15)), 1e-10);
}

TEST(PseudoInverse, SatisfiesPenroseOnLaplacian) {
  const Multigraph g = make_grid2d(4, 4);
  const DenseMatrix l = laplacian_dense(g);
  const DenseMatrix p = pseudo_inverse(l);
  // L P L == L and P L P == P.
  EXPECT_LT(l.multiply(p).multiply(l).max_abs_diff(l), 1e-8);
  EXPECT_LT(p.multiply(l).multiply(p).max_abs_diff(p), 1e-8);
  // P is symmetric and annihilates the ones vector.
  EXPECT_LT(p.max_abs_diff(p.transpose()), 1e-10);
  const Vector ones(16, 1.0);
  for (const double v : p.apply(ones)) EXPECT_NEAR(v, 0.0, 1e-9);
}

Vector random_rhs(std::size_t n, std::uint64_t seed) {
  Vector b(n);
  Rng rng(seed, RngTag::kTest, 0);
  for (auto& v : b) v = rng.next_in(-1.0, 1.0);
  return b;
}

/// x = L^+ b through the grounded factor, one column.
Vector grounded_apply(const GroundedFactor& f, const Vector& b) {
  Vector x = b;
  Vector sums(static_cast<std::size_t>(f.components));
  grounded_solve(f.n, f.components, f.values.data(), f.component.data(), 1,
                 x.data(), sums.data());
  return x;
}

/// max_i |x_i - y_i| / max_i |y_i|.
double max_rel_diff(const Vector& x, const Vector& y) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(x[i] - y[i]));
    scale = std::max(scale, std::abs(y[i]));
  }
  return diff / scale;
}

TEST(GroundedFactor, MatchesPseudoInverse) {
  const std::pair<const char*, Multigraph> graphs[] = {
      {"path", make_path(40)},
      {"grid", make_grid2d(8, 9)},
      {"complete", make_complete(30)},
      {"barbell", make_barbell(12, 10)},
  };
  for (const auto& [name, g] : graphs) {
    const GroundedFactor f = grounded_factor(g);
    EXPECT_EQ(f.components, 1) << name;
    const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Vector b = random_rhs(static_cast<std::size_t>(g.num_vertices()), seed);
      EXPECT_LT(max_rel_diff(grounded_apply(f, b), pinv.apply(b)), 1e-12)
          << name << " seed " << seed;
    }
  }
}

TEST(GroundedFactor, GroundsOnceAndStaysMeanFreePerComponent) {
  // Two components (a weighted cycle on the even ids, a path on the odd
  // ones) plus an isolated vertex, 10.
  Multigraph g(11);
  for (Vertex i = 0; i < 5; ++i) {
    g.add_edge(2 * i, 2 * ((i + 1) % 5), 1.0 + i);
  }
  for (Vertex i = 0; i < 4; ++i) g.add_edge(2 * i + 1, 2 * i + 3, 0.5);
  const GroundedFactor f = grounded_factor(g);
  ASSERT_EQ(f.components, 3);
  const auto n = static_cast<std::size_t>(f.n);
  const double* inv_pivot = f.values.data() + n * (n - 1) / 2;
  std::vector<int> grounds(3, 0);
  std::vector<Vertex> last(3, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto c = static_cast<std::size_t>(f.component[v]);
    last[c] = static_cast<Vertex>(v);
    if (inv_pivot[v] == 0.0) ++grounds[c];
  }
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(grounds[c], 1) << "component " << c;
    EXPECT_EQ(inv_pivot[last[c]], 0.0) << "component " << c;
  }

  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const Vector b = random_rhs(n, 9);
  const Vector x = grounded_apply(f, b);
  std::vector<double> sums(3, 0.0);
  for (std::size_t v = 0; v < n; ++v) sums[static_cast<std::size_t>(f.component[v])] += x[v];
  for (const double s : sums) EXPECT_NEAR(s, 0.0, 1e-13);
  EXPECT_LT(max_rel_diff(x, pinv.apply(b)), 1e-12);
}

TEST(GroundedFactor, SolvesWideWeightSpreadPath) {
  // path:80 with powerlaw:1e-6,1e6,1 weights: the spectrum spans far more
  // than the eigensolve cutoff, which drops real eigenvalues as kernel.
  Multigraph g = make_path(80);
  apply_weights(g, WeightModel::power_law(1e-6, 1e6, 1.0), 2);
  Vector b = random_rhs(80, 1);
  double mean = 0.0;
  for (const double v : b) mean += v / 80.0;
  for (double& v : b) v -= mean;
  const DenseMatrix l = laplacian_dense(g);
  const Vector lx = l.apply(grounded_apply(grounded_factor(g), b));
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) r += (lx[i] - b[i]) * (lx[i] - b[i]);
  EXPECT_LE(std::sqrt(r) / norm2(b), 1e-3);
}

template <typename T>
std::uint64_t bits(T v) {
  if constexpr (sizeof(T) == 8) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return std::bit_cast<std::uint32_t>(v);
  }
}

template <typename T>
void expect_panel_matches_columns(const GroundedFactor& f, std::size_t cols) {
  const auto n = static_cast<std::size_t>(f.n);
  const std::vector<T> values(f.values.begin(), f.values.end());
  const Vector b = random_rhs(n * cols, 17);
  std::vector<T> panel(b.begin(), b.end());
  std::vector<T> sums(static_cast<std::size_t>(f.components) * cols);
  grounded_solve(f.n, f.components, values.data(), f.component.data(), cols,
                 panel.data(), sums.data());
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<T> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = static_cast<T>(b[i * cols + c]);
    grounded_solve(f.n, f.components, values.data(), f.component.data(), 1,
                   col.data(), sums.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(col[i]), bits(panel[i * cols + c]))
          << "cols " << cols << " column " << c << " row " << i;
    }
  }
}

TEST(GroundedFactor, PanelColumnsMatchSingleColumnsBitwise) {
  Multigraph g = make_erdos_renyi(37, 120, 4);
  apply_weights(g, WeightModel::uniform(0.5, 2.0), 5);
  const GroundedFactor f = grounded_factor(g);
  for (const std::size_t cols : {2, 4, 8, 13, 16}) {
    expect_panel_matches_columns<double>(f, cols);
    expect_panel_matches_columns<float>(f, cols);
  }
}

TEST(Cholesky, FactorAndSolve) {
  // SPD matrix: L_path + I.
  const Multigraph g = make_path(8);
  DenseMatrix a = laplacian_dense(g);
  for (int i = 0; i < 8; ++i) a(i, i) += 1.0;
  const DenseMatrix chol = cholesky_factor(a);
  Vector b(8);
  Rng rng(1, RngTag::kTest, 0);
  for (auto& v : b) v = rng.next_in(-1.0, 1.0);
  const Vector x = cholesky_solve(chol, b);
  const Vector ax = a.apply(x);
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(ax[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-10);
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW((void)cholesky_factor(a), std::runtime_error);
}

TEST(SchurDense, PathEliminationIsSeriesReduction) {
  // Path 0-1-2 with unit weights: eliminating the middle vertex leaves a
  // single edge of weight 1/2 (series resistors add).
  const Multigraph g = make_path(3);
  const DenseMatrix l = laplacian_dense(g);
  const std::vector<Vertex> keep{0, 2};
  const DenseMatrix sc = schur_complement_dense(l, keep);
  EXPECT_NEAR(sc(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(sc(0, 1), -0.5, 1e-12);
  EXPECT_NEAR(sc(1, 1), 0.5, 1e-12);
}

TEST(SchurDense, IsLaplacianOfConnectedGraph) {
  // Fact 2.4: SC of a connected Laplacian is a connected Laplacian.
  Multigraph g = make_erdos_renyi(25, 80, 3);
  apply_weights(g, WeightModel::uniform(0.5, 3.0), 4);
  const DenseMatrix l = laplacian_dense(g);
  std::vector<Vertex> keep;
  for (Vertex v = 0; v < 10; ++v) keep.push_back(v);
  const DenseMatrix sc = schur_complement_dense(l, keep);
  // Zero row sums, nonpositive off-diagonals.
  for (int i = 0; i < sc.rows(); ++i) {
    double row = 0.0;
    for (int j = 0; j < sc.cols(); ++j) {
      row += sc(i, j);
      if (i != j) {
        EXPECT_LE(sc(i, j), 1e-10);
      }
    }
    EXPECT_NEAR(row, 0.0, 1e-9);
  }
}

TEST(SchurDense, NoEliminationIsIdentity) {
  const Multigraph g = make_cycle(6);
  const DenseMatrix l = laplacian_dense(g);
  std::vector<Vertex> keep;
  for (Vertex v = 0; v < 6; ++v) keep.push_back(v);
  EXPECT_LT(schur_complement_dense(l, keep).max_abs_diff(l), 1e-14);
}

TEST(LeverageScoresDense, TreeEdgesHaveLeverageOne) {
  const Multigraph g = make_binary_tree(15);
  const Vector tau = leverage_scores_dense(g);
  for (const double t : tau) EXPECT_NEAR(t, 1.0, 1e-8);
}

TEST(LeverageScoresDense, SumIsNMinusComponents) {
  // Foster's theorem: sum of leverage scores = n - 1 for connected G.
  Multigraph g = make_erdos_renyi(20, 70, 5);
  apply_weights(g, WeightModel::uniform(0.2, 4.0), 6);
  const Vector tau = leverage_scores_dense(g);
  double total = 0.0;
  for (const double t : tau) {
    EXPECT_GE(t, -1e-10);
    EXPECT_LE(t, 1.0 + 1e-10);
    total += t;
  }
  EXPECT_NEAR(total, 19.0, 1e-7);
}

TEST(RelativeSpectralBounds, IdentityPair) {
  const Multigraph g = make_grid2d(4, 3);
  const DenseMatrix l = laplacian_dense(g);
  const SpectralBounds sb = relative_spectral_bounds(l, l);
  EXPECT_NEAR(sb.lo, 1.0, 1e-9);
  EXPECT_NEAR(sb.hi, 1.0, 1e-9);
  EXPECT_LT(sb.kernel_leakage, 1e-9);
}

TEST(RelativeSpectralBounds, ScaledPair) {
  const Multigraph g = make_cycle(9);
  const DenseMatrix l = laplacian_dense(g);
  DenseMatrix l2 = l;
  for (int i = 0; i < 9; ++i)
    for (int j = 0; j < 9; ++j) l2(i, j) *= 1.5;
  const SpectralBounds sb = relative_spectral_bounds(l2, l);
  EXPECT_NEAR(sb.lo, 1.5, 1e-9);
  EXPECT_NEAR(sb.hi, 1.5, 1e-9);
}

TEST(IsEpsApproximation, AcceptsWithinAndRejectsBeyond) {
  const Multigraph g = make_grid2d(3, 4);
  const DenseMatrix l = laplacian_dense(g);
  DenseMatrix scaled = l;
  const double factor = std::exp(0.3);
  for (int i = 0; i < l.rows(); ++i)
    for (int j = 0; j < l.cols(); ++j) scaled(i, j) *= factor;
  EXPECT_TRUE(is_eps_approximation(scaled, l, 0.31));
  EXPECT_FALSE(is_eps_approximation(scaled, l, 0.29));
}

TEST(IsEpsApproximation, RejectsKernelMismatch) {
  // B has a bigger kernel than A: disconnected vs connected.
  const Multigraph connected = make_path(4);
  Multigraph disconnected(4);
  disconnected.add_edge(0, 1, 1.0);
  disconnected.add_edge(2, 3, 1.0);
  EXPECT_FALSE(is_eps_approximation(laplacian_dense(connected),
                                    laplacian_dense(disconnected), 0.5));
}

}  // namespace
}  // namespace parlap
