// Panel — a column-major n x k block of right-hand sides / solutions.
//
// The multi-RHS unit of the blocked solve path: one chain traversal (or
// Laplacian apply) serves every column of a panel, amortizing the CSR
// index arrays, the gather/scatter lists, and the parallel-region
// launches across k systems. Columns are contiguous (leading dimension =
// rows), so every per-column reduction (norm2, dot, project_out_ones)
// runs on exactly the memory layout the k=1 path sees — which is what
// makes panel results bit-identical, column for column, to a sequential
// loop of single-RHS solves at any block width and thread count.
//
// The loops below are plain: one parallel pass over row blocks, columns
// outer and rows inner within a block, and the reductions run through
// deterministic_sums with one term per (row, column). Each column's
// arithmetic is ordered exactly as the single-vector op orders it, so a
// panel column equals dot / norm2 / axpy on that column by construction.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "support/types.hpp"

namespace parlap {

/// Column-major rows x cols matrix of doubles; column c is the
/// contiguous range data()[c*rows .. (c+1)*rows).
class Panel {
 public:
  Panel() = default;
  Panel(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Resizes without preserving contents (buffers are recycled across
  /// uses; callers overwrite before reading).
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] std::span<double> col(std::size_t c) noexcept {
    return {data_.data() + c * rows_, rows_};
  }
  [[nodiscard]] std::span<const double> col(std::size_t c) const noexcept {
    return {data_.data() + c * rows_, rows_};
  }

  [[nodiscard]] double& at(std::size_t i, std::size_t c) noexcept {
    return data_[c * rows_ + i];
  }
  [[nodiscard]] double at(std::size_t i, std::size_t c) const noexcept {
    return data_[c * rows_ + i];
  }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// dst <- one column per entry of `bs` (all must share bs[0]'s size).
void panel_from_vectors(std::span<const Vector> bs, Panel& dst);

/// xs[c] <- column c (each xs[c] is resized to src.rows()).
void panel_to_vectors(const Panel& src, std::span<Vector> xs);

void panel_fill(Panel& p, double value);

/// dst = src (shapes must match).
void panel_assign(Panel& dst, const Panel& src);

/// y.col(c) += a * x.col(c) for every column with mask[c] != 0 (an empty
/// mask means all columns). One pass over rows serving every column.
void panel_axpy(double a, const Panel& x, Panel& y,
                std::span<const unsigned char> mask = {});

/// out[c] = ||p.col(c)||_2 — per column bit-identical to norm2 on a
/// standalone vector.
void panel_col_norms(const Panel& p, std::span<double> out);

/// out[c] = <a.col(c), b.col(c)> — per column bit-identical to dot.
void panel_col_dots(const Panel& a, const Panel& b, std::span<double> out);

/// dst(i, c) = src(rows[i], c): one indexed gather serving k columns.
void panel_gather(const Panel& src, std::span<const Vertex> rows, Panel& dst);

/// dst(rows[i], c) = src(i, c): the inverse scatter.
void panel_scatter(const Panel& src, std::span<const Vertex> rows, Panel& dst);

/// Kernel projection per column: col -= mean(col), in one pass over the
/// panel. Bit-identical to project_out_ones on each column.
void panel_project_out_ones(Panel& p);

}  // namespace parlap
