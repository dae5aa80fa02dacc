// Panel contracts (linalg/panel.hpp): column-major layout, per-column
// bit-equality of the panel loops with their single-vector counterparts
// at every thread count, and gather/scatter round trips.
#include "linalg/panel.hpp"

#include <gtest/gtest.h>

#include <omp.h>

#include <numeric>
#include <optional>

#include "parallel/for_each.hpp"
#include "support/rng.hpp"

namespace parlap {
namespace {

Panel random_panel(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Panel p(rows, cols);
  Rng rng(seed, RngTag::kTest, 7);
  for (std::size_t c = 0; c < cols; ++c) {
    for (double& v : p.col(c)) v = rng.next_in(-2.0, 2.0);
  }
  return p;
}

TEST(Panel, ColumnsAreContiguousColumnMajor) {
  Panel p(5, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 5; ++i) p.at(i, c) = 10.0 * c + i;
  }
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(p.col(c).data(), p.data() + c * 5);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(p.col(c)[i], 10.0 * c + i);
    }
  }
}

TEST(Panel, FromToVectorsRoundTrip) {
  std::vector<Vector> bs = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Panel p;
  panel_from_vectors(bs, p);
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_EQ(p.cols(), 2u);
  std::vector<Vector> out(2);
  panel_to_vectors(p, out);
  EXPECT_EQ(out[0], bs[0]);
  EXPECT_EQ(out[1], bs[1]);
}

TEST(Panel, AxpyMatchesScalarPerColumnAndHonorsMask) {
  const std::size_t n = 1000;
  const Panel x = random_panel(n, 4, 1);
  Panel y = random_panel(n, 4, 2);
  const Panel y0 = y;

  // Scalar reference per column.
  Panel want = y0;
  for (std::size_t c = 0; c < 4; ++c) axpy(0.37, x.col(c), want.col(c));

  const std::vector<unsigned char> mask = {1, 0, 1, 0};
  panel_axpy(0.37, x, y, mask);
  for (std::size_t c = 0; c < 4; ++c) {
    const auto& ref = (mask[c] != 0) ? want : y0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y.at(i, c), ref.at(i, c)) << "col " << c << " row " << i;
    }
  }
}

TEST(Panel, ColNormsAndDotsMatchScalar) {
  // 777 rows: one reduction chunk. 40000 rows: three chunks, which fork
  // at 4 threads. The references are taken at 1 thread, so the panel
  // reductions must also keep their bits across thread counts and under
  // a SerialScope.
  const int saved = omp_get_max_threads();
  for (const std::size_t rows : {std::size_t{777}, std::size_t{40000}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                std::size_t{17}}) {
      const Panel a = random_panel(rows, k, 3);
      const Panel b = random_panel(rows, k, 4);
      omp_set_num_threads(1);
      std::vector<double> want_norms;
      std::vector<double> want_dots;
      for (std::size_t c = 0; c < k; ++c) {
        want_norms.push_back(norm2(a.col(c)));
        want_dots.push_back(dot(a.col(c), b.col(c)));
      }
      for (const bool serial_scope : {false, true}) {
        for (const int threads : {1, 4}) {
          omp_set_num_threads(threads);
          std::optional<SerialScope> scope;
          if (serial_scope) scope.emplace();
          std::vector<double> norms(k);
          std::vector<double> dots(k);
          panel_col_norms(a, norms);
          panel_col_dots(a, b, dots);
          EXPECT_EQ(norms, want_norms) << "rows " << rows << " width " << k
                                       << " threads " << threads
                                       << " scope " << serial_scope;
          EXPECT_EQ(dots, want_dots) << "rows " << rows << " width " << k
                                     << " threads " << threads << " scope "
                                     << serial_scope;
        }
      }
    }
  }
  omp_set_num_threads(saved);
}

TEST(Panel, GatherScatterRoundTrip) {
  const Panel src = random_panel(50, 3, 5);
  std::vector<Vertex> rows = {7, 0, 49, 13, 13};
  Panel picked;
  panel_gather(src, rows, picked);
  ASSERT_EQ(picked.rows(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(picked.at(i, c),
                src.at(static_cast<std::size_t>(rows[i]), c));
    }
  }

  std::vector<Vertex> distinct(50);
  std::iota(distinct.begin(), distinct.end(), Vertex{0});
  std::swap(distinct[3], distinct[41]);
  Panel all;
  panel_gather(src, distinct, all);
  Panel back(50, 3);
  panel_scatter(all, distinct, back);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(back.at(i, c), src.at(i, c));
    }
  }
}

TEST(Panel, ProjectOutOnesMatchesScalar) {
  // 777 rows: one reduction chunk, one row block. 40000 rows: three
  // reduction chunks folded in order and many row blocks.
  for (const std::size_t rows : {std::size_t{777}, std::size_t{40000}}) {
    Panel p = random_panel(rows, 3, 6);
    std::vector<Vector> refs;
    for (std::size_t c = 0; c < 3; ++c) {
      refs.emplace_back(p.col(c).begin(), p.col(c).end());
      project_out_ones(refs.back());
    }
    panel_project_out_ones(p);
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(p.at(i, c), refs[c][i]) << "rows " << rows << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace parlap
