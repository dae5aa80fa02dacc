// Lemma 3.5 (truncated Jacobi series on 5-DD matrices), Theorem 3.8
// (preconditioned Richardson) and the solver's panel PCG outer loop,
// verified densely.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pcg.hpp"
#include "core/richardson.hpp"
#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "support/rng.hpp"

namespace parlap {
namespace {

/// Builds a dense 5-DD test matrix M = X + Y from a graph: Y = L_G[F]
/// with X chosen so row sums dominate 5x.
struct FiveDdMatrix {
  DenseMatrix m;  // X + Y
  DenseMatrix x;  // diagonal
  DenseMatrix y;  // Laplacian part
};

FiveDdMatrix make_five_dd_matrix(int n, std::uint64_t seed) {
  Multigraph g = make_erdos_renyi(n, 2 * n, seed, /*ensure_connected=*/true);
  apply_weights(g, WeightModel::uniform(0.5, 2.0), seed + 1);
  FiveDdMatrix out;
  out.y = laplacian_dense(g);
  out.x = DenseMatrix(n, n);
  for (int i = 0; i < n; ++i) {
    // Off-diagonal row sum of M is the weighted degree; require
    // M_ii = X_ii + deg >= 5 deg, i.e. X_ii >= 4 deg.
    out.x(i, i) = 4.0 * out.y(i, i) + 0.1;
  }
  out.m = out.x.add(out.y);
  return out;
}

/// Z = sum_{i=0}^{l} X^-1 (-Y X^-1)^i, densely.
DenseMatrix jacobi_series(const FiveDdMatrix& fd, int l) {
  const int n = fd.m.rows();
  DenseMatrix x_inv(n, n);
  for (int i = 0; i < n; ++i) x_inv(i, i) = 1.0 / fd.x(i, i);
  DenseMatrix term = x_inv;  // i = 0
  DenseMatrix z = term;
  for (int i = 1; i <= l; ++i) {
    term = term.multiply(fd.y).multiply(x_inv);
    // Alternating sign: (-YX^-1)^i.
    z = z.add(term, i % 2 == 0 ? 1.0 : -1.0);
  }
  return z;
}

class JacobiLemmaTest : public ::testing::TestWithParam<int> {};

TEST_P(JacobiLemmaTest, SandwichBoundHolds) {
  // Lemma 3.5: for odd l >= log2(3/eps), M <= Z^-1 <= M + eps Y.
  const int l = GetParam();
  const double eps = 3.0 / std::pow(2.0, l);
  const FiveDdMatrix fd = make_five_dd_matrix(24, 7);
  const DenseMatrix z = jacobi_series(fd, l);
  const DenseMatrix z_inv = pseudo_inverse(z);  // Z is PD here

  // M <= Z^-1  <=>  Z^-1 - M is PSD.
  {
    DenseMatrix diff = z_inv.add(fd.m, -1.0);
    diff.symmetrize();
    const EigenDecomposition eig = symmetric_eigen(std::move(diff));
    EXPECT_GE(eig.values.front(), -1e-7);
  }
  // Z^-1 <= M + eps Y.
  {
    DenseMatrix upper = fd.m.add(fd.y, eps);
    DenseMatrix diff = upper.add(z_inv, -1.0);
    diff.symmetrize();
    const EigenDecomposition eig = symmetric_eigen(std::move(diff));
    EXPECT_GE(eig.values.front(), -1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(SeriesLengths, JacobiLemmaTest,
                         ::testing::Values(1, 3, 5, 7, 9));

TEST(JacobiLemma, LongerSeriesTighter) {
  const FiveDdMatrix fd = make_five_dd_matrix(20, 9);
  double prev_gap = 1e300;
  for (const int l : {1, 3, 5, 7}) {
    const DenseMatrix z = jacobi_series(fd, l);
    const DenseMatrix z_inv = pseudo_inverse(z);
    const double gap = z_inv.add(fd.m, -1.0).frobenius_norm();
    EXPECT_LT(gap, prev_gap);
    prev_gap = gap;
  }
}

// ---------------------------------------------------------------------
// Theorem 3.8 on width-1 panels: one right-hand side is a one-column
// panel through the (only) blocked Richardson overload.

/// One right-hand side as a width-1 panel.
Panel column_panel(const Vector& b) {
  Panel p;
  panel_from_vectors({&b, 1}, p);
  return p;
}

/// y = c * P r, column by column (the dense test preconditioners have no
/// blocked form).
PanelMap dense_map(const DenseMatrix& p, double c = 1.0) {
  return [&p, c](const Panel& r, Panel& y) {
    y.resize(r.rows(), r.cols());
    for (std::size_t j = 0; j < r.cols(); ++j) {
      const Vector out = p.apply(r.col(j));
      for (std::size_t i = 0; i < out.size(); ++i) y.at(i, j) = c * out[i];
    }
  };
}

const PanelMap kIdentityMap = [](const Panel& r, Panel& y) { y = r; };

/// A mean-free random right-hand side of length n.
Vector projected_random(std::size_t n, std::uint64_t seed) {
  Vector b(n);
  Rng rng(seed, RngTag::kTest, 0);
  for (auto& v : b) v = rng.next_in(-1.0, 1.0);
  project_out_ones(b);
  return b;
}

TEST(Richardson, ExactPreconditionerOneShot) {
  const Multigraph g = make_grid2d(6, 6);
  const LaplacianOperator op(g);
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const Panel b = column_panel(projected_random(36, 1));
  Panel x;
  RichardsonOptions opts;
  opts.delta = 1e-6;
  opts.auto_step = false;  // test the paper's alpha = 2/(e^-d + e^d)
  const IterationStats st =
      preconditioned_richardson(op, dense_map(pinv), b, x, 1e-10, opts)
          .front();
  EXPECT_TRUE(st.reached_target);
  EXPECT_LE(st.iterations, 2);
}

TEST(Richardson, AutoStepSurvivesMiscalibratedPreconditioner) {
  // B = e^2 L^+ is far outside the delta = 1 window: the paper's fixed
  // alpha diverges (alpha * lambda_max ~ 0.648 e^2 > 2), while the
  // power-iteration step size converges.
  const Multigraph g = make_cycle(40);
  const LaplacianOperator op(g);
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const PanelMap precond = dense_map(pinv, std::exp(2.0));
  const Panel b = column_panel(projected_random(40, 5));

  RichardsonOptions fixed;
  fixed.auto_step = false;
  fixed.delta = 1.0;  // wrong: actual delta is 2
  fixed.max_iterations = 60;
  Panel x1;
  const IterationStats diverged =
      preconditioned_richardson(op, precond, b, x1, 1e-8, fixed).front();
  EXPECT_FALSE(diverged.reached_target);

  RichardsonOptions autod;
  autod.max_iterations = 60;
  Panel x2;
  const IterationStats converged =
      preconditioned_richardson(op, precond, b, x2, 1e-8, autod).front();
  EXPECT_TRUE(converged.reached_target);
}

TEST(Richardson, ScaledPreconditionerConvergesAtTheoryRate) {
  // B = c * L^+ is a delta-approximation with delta = |ln c|; Richardson
  // must still converge within the e^{2 delta} log(1/eps) budget.
  const Multigraph g = make_cycle(40);
  const LaplacianOperator op(g);
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const Panel b = column_panel(projected_random(40, 2));
  Panel x;
  RichardsonOptions opts;
  opts.delta = 0.8;
  opts.auto_step = false;  // measure the paper's fixed-alpha rate
  opts.residual_target = 1e-10;
  const double eps = 1e-10;
  const IterationStats st =
      preconditioned_richardson(op, dense_map(pinv, std::exp(0.8)), b, x,
                                eps, opts)
          .front();
  EXPECT_TRUE(st.reached_target);
  EXPECT_LE(st.iterations, static_cast<int>(std::ceil(
                               std::exp(1.6) * std::log(1.0 / eps))) +
                               1);
}

TEST(Richardson, ZeroRhsReturnsZero) {
  const Multigraph g = make_path(10);
  const LaplacianOperator op(g);
  const Panel b(10, 1);
  Panel x(10, 1);
  panel_fill(x, 5.0);
  const IterationStats st =
      preconditioned_richardson(op, kIdentityMap, b, x, 0.5).front();
  EXPECT_TRUE(st.reached_target);
  for (const double v : x.col(0)) EXPECT_EQ(v, 0.0);
}

TEST(Richardson, IterationCapRespected) {
  const Multigraph g = make_path(200);  // terrible conditioning
  const LaplacianOperator op(g);
  const Panel b = column_panel(projected_random(200, 3));
  Panel x;
  RichardsonOptions opts;
  opts.max_iterations = 7;
  const IterationStats st =
      preconditioned_richardson(op, kIdentityMap, b, x, 1e-12, opts).front();
  EXPECT_FALSE(st.reached_target);
  EXPECT_EQ(st.iterations, 7);
}

TEST(Richardson, InvalidEpsThrows) {
  const Multigraph g = make_path(4);
  const LaplacianOperator op(g);
  const Panel b(4, 1);
  Panel x;
  EXPECT_THROW((void)preconditioned_richardson(op, kIdentityMap, b, x, 1.5),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// panel_pcg: the solver's outer loop.

/// ||b.col(c) - A x.col(c)|| / ||b.col(c)||, computed independently of
/// the loop.
double own_residual(const LaplacianOperator& op, const Panel& b,
                    const Panel& x, std::size_t c) {
  Vector ax(b.rows());
  op.apply(x.col(c), ax);
  for (std::size_t i = 0; i < b.rows(); ++i) ax[i] = b.at(i, c) - ax[i];
  return norm2(ax) / norm2(b.col(c));
}

/// Columns of mean-free random right-hand sides.
Panel projected_panel(std::size_t n, std::size_t cols, std::uint64_t seed) {
  std::vector<Vector> bs;
  for (std::size_t c = 0; c < cols; ++c) {
    bs.push_back(projected_random(n, seed + c));
  }
  Panel p;
  panel_from_vectors(bs, p);
  return p;
}

TEST(Pcg, ExactPreconditionerConvergesInTwoIterations) {
  const Multigraph g = make_grid2d(6, 6);
  const LaplacianOperator op(g);
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const Panel b = column_panel(projected_random(36, 1));
  Panel x;
  const IterationStats st =
      panel_pcg(op, dense_map(pinv), b, x, 1e-10).front();
  EXPECT_TRUE(st.reached_target);
  EXPECT_LE(st.iterations, 2);
  EXPECT_LE(st.relative_residual, 1e-10);
}

TEST(Pcg, ZeroRhsColumnIsExactlyZero) {
  const Multigraph g = make_path(10);
  const LaplacianOperator op(g);
  Panel b = projected_panel(10, 2, 4);
  fill(b.col(0), 0.0);
  Panel x(10, 2);
  panel_fill(x, 5.0);
  const std::vector<IterationStats> st =
      panel_pcg(op, kIdentityMap, b, x, 1e-8);
  EXPECT_TRUE(st[0].reached_target);
  EXPECT_EQ(st[0].iterations, 0);
  EXPECT_EQ(st[0].relative_residual, 0.0);
  for (const double v : x.col(0)) EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(st[1].reached_target);  // the nonzero column still solves
  EXPECT_GT(st[1].iterations, 0);
}

TEST(Pcg, IterationCapRespected) {
  const Multigraph g = make_path(200);  // terrible conditioning
  const LaplacianOperator op(g);
  const Panel b = column_panel(projected_random(200, 3));
  Panel x;
  OuterOptions opts;
  opts.max_iterations = 7;
  const IterationStats st =
      panel_pcg(op, kIdentityMap, b, x, 1e-12, opts).front();
  EXPECT_FALSE(st.reached_target);
  EXPECT_EQ(st.iterations, 7);
}

TEST(Pcg, InvalidEpsThrows) {
  const Multigraph g = make_path(4);
  const LaplacianOperator op(g);
  const Panel b(4, 1);
  Panel x;
  EXPECT_THROW((void)panel_pcg(op, kIdentityMap, b, x, 1.5),
               std::runtime_error);
  EXPECT_THROW((void)panel_pcg(op, kIdentityMap, b, x, 0.0),
               std::runtime_error);
}

TEST(Pcg, ReportedResidualIsTheTrueResidual) {
  // Unpreconditioned CG on a 300-vertex path: 40 iterations leave every
  // column unconverged, 2000 converge them; both must report the
  // residual of the x they return.
  const Multigraph g = make_path(300);
  const LaplacianOperator op(g);
  const Panel b = projected_panel(300, 3, 11);
  for (const int cap : {40, 2000}) {
    OuterOptions opts;
    opts.max_iterations = cap;
    Panel x;
    const std::vector<IterationStats> st =
        panel_pcg(op, kIdentityMap, b, x, 1e-9, opts);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(st[c].reached_target, cap == 2000) << "cap " << cap;
      EXPECT_DOUBLE_EQ(st[c].relative_residual, own_residual(op, b, x, c))
          << "cap " << cap << " col " << c;
      if (st[c].reached_target) {
        EXPECT_LE(st[c].relative_residual, 1e-9);
      }
    }
  }
}

TEST(Pcg, IndefinitePreconditionerNeverReturnsWorseThanZero) {
  // M = +-(1 + 3k) L^+ on L's k-th eigenvector, the sign alternating: not
  // PSD, so PCG's energy argument fails and a capped column can stop at
  // an x worse than its start x = 0 (residual 1). The loop must return
  // an x no worse than that start, and report its residual truthfully.
  const Multigraph g = make_cycle(40);
  const LaplacianOperator op(g);
  const EigenDecomposition eig = symmetric_eigen(laplacian_dense(g));
  const int n = 40;
  DenseMatrix m(n, n);
  for (int k = 1; k < n; ++k) {  // k = 0 is the kernel
    const double s = (k % 2 == 0 ? -1.0 : 1.0) * (1.0 + 3.0 * k) /
                     eig.values[static_cast<std::size_t>(k)];
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        m(i, j) += s * eig.vectors(i, k) * eig.vectors(j, k);
      }
    }
  }
  const Panel b = projected_panel(40, 8, 21);
  for (const int cap : {3, 5, 0}) {  // 0: the default cap
    OuterOptions opts;
    opts.max_iterations = cap;
    Panel x;
    const std::vector<IterationStats> st =
        panel_pcg(op, dense_map(m), b, x, 1e-10, opts);
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_LE(st[c].relative_residual, 1.0) << "cap " << cap << " col " << c;
      EXPECT_DOUBLE_EQ(st[c].relative_residual, own_residual(op, b, x, c))
          << "cap " << cap << " col " << c;
    }
  }
}

TEST(Pcg, PanelColumnsMatchWidthOneSolves) {
  // Columns are arithmetically independent: a panel column's bits and
  // stats equal a width-1 solve of that column, whichever columns
  // converge first.
  const Multigraph g = make_grid2d(12, 12);
  const LaplacianOperator op(g);
  const Panel b = projected_panel(144, 5, 31);
  Panel x;
  const std::vector<IterationStats> st =
      panel_pcg(op, kIdentityMap, b, x, 1e-9);
  for (std::size_t c = 0; c < 5; ++c) {
    Panel bc(144, 1);
    assign(bc.col(0), b.col(c));
    Panel xc;
    const IterationStats one =
        panel_pcg(op, kIdentityMap, bc, xc, 1e-9).front();
    EXPECT_EQ(one.iterations, st[c].iterations);
    EXPECT_EQ(one.relative_residual, st[c].relative_residual);
    for (std::size_t i = 0; i < 144; ++i) ASSERT_EQ(xc.at(i, 0), x.at(i, c));
  }
}

}  // namespace
}  // namespace parlap
