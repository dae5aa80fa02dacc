#include "core/richardson.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"

namespace parlap {

namespace {

/// Cumulative outer-iteration count across every Richardson run in the
/// process, summed over panel columns (per-run counts stay in
/// IterationStats).
obs::Counter& iteration_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("parlap.richardson.iterations");
  return c;
}

}  // namespace

double estimate_max_eigenvalue(const LaplacianOperator& a,
                               const PanelMap& precond, int iterations) {
  // Power iteration on B A (similar to the symmetric PSD matrix
  // B^{1/2} A B^{1/2}, so the dominant eigenvalue is real positive and
  // the Rayleigh quotient converges from below).
  const auto n = static_cast<std::size_t>(a.dimension());
  Panel v(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    // Deterministic pseudo-random start, mean-free up to rounding.
    v.at(i, 0) = static_cast<double>((i * 2654435761u) % 1024) - 511.5;
  }
  Panel av;
  Panel bav;
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    a.apply(v, av);
    precond(av, bav);
    const double nrm = norm2(bav.col(0));
    if (nrm <= 0.0) break;
    lambda = dot(v.col(0), bav.col(0)) /
             std::max(dot(v.col(0), v.col(0)), 1e-300);
    scale(bav.col(0), 1.0 / nrm);
    std::swap(v, bav);
  }
  return lambda;
}

std::vector<IterationStats> preconditioned_richardson(
    const LaplacianOperator& a, const PanelMap& precond, const Panel& b,
    Panel& x, double eps, const RichardsonOptions& opts) {
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  PARLAP_CHECK(n == static_cast<std::size_t>(a.dimension()));
  PARLAP_CHECK(k >= 1);
  PARLAP_CHECK(eps > 0.0 && eps < 1.0);
  x.resize(n, k);

  PARLAP_TRACE_SPAN_N(span, "richardson.panel", "solve");
  span.arg("cols", static_cast<double>(k));
  std::vector<IterationStats> stats(k);
  std::vector<double> b_norms(k);
  panel_col_norms(b, b_norms);

  // active[c] != 0 while column c still iterates; a frozen column's x is
  // never written again (panel_axpy honors the mask), which is what makes
  // each column's history identical to its width-1 solve.
  std::vector<unsigned char> active(k, 1);
  std::size_t n_active = k;
  for (std::size_t c = 0; c < k; ++c) {
    if (b_norms[c] == 0.0) {
      active[c] = 0;
      --n_active;
      stats[c].reached_target = true;  // x.col(c) zeroed below
    }
  }

  double alpha = 2.0 / (std::exp(-opts.delta) + std::exp(opts.delta));
  if (opts.fixed_alpha > 0.0) {
    alpha = opts.fixed_alpha;
  } else if (opts.auto_step && n_active > 0) {
    // The estimate starts from a deterministic vector, so it is one
    // width-1 power iteration shared by every column.
    const double lambda =
        estimate_max_eigenvalue(a, precond, opts.power_iterations);
    if (lambda > 0.0) alpha = 0.95 / lambda;
  }
  const int cap =
      opts.max_iterations > 0
          ? opts.max_iterations
          : std::max(1, static_cast<int>(std::ceil(
                            std::exp(2.0 * opts.delta) * std::log(1.0 / eps))));
  const double target =
      opts.residual_target >= 0.0 ? opts.residual_target : eps;

  // x^(0) = B b   (Algorithm 5, line 3); zero-rhs columns get x = 0.
  precond(b, x);
  for (std::size_t c = 0; c < k; ++c) {
    if (b_norms[c] == 0.0) fill(x.col(c), 0.0);
  }

  Panel r(n, k);
  Panel br;
  std::vector<double> stall_ref(
      k, std::numeric_limits<double>::infinity());
  const double* bd = b.data();
  for (int it = 0; it < cap && n_active > 0; ++it) {
    a.apply(x, r);
    double* rd = r.data();
    parallel_for(std::size_t{0}, n, [&](std::size_t i) {
      for (std::size_t c = 0; c < k; ++c) {
        rd[c * n + i] = bd[c * n + i] - rd[c * n + i];
      }
    });
    for (std::size_t c = 0; c < k; ++c) {
      if (!active[c]) continue;
      stats[c].relative_residual = norm2(r.col(c)) / b_norms[c];
      stats[c].iterations = it;
      if (stats[c].relative_residual <= target) {
        stats[c].reached_target = true;
        active[c] = 0;
        --n_active;
        continue;
      }
      if (opts.stall_window > 0) {
        // Per-column checkpoints, so a frozen-on-stall column's history
        // still equals its width-1 solve.
        const bool checkpoint = (it + 1) % opts.stall_window == 0;
        const bool stalled =
            checkpoint &&
            stats[c].relative_residual > stall_ref[c] * opts.stall_improvement;
        if (!std::isfinite(stats[c].relative_residual) || stalled) {
          active[c] = 0;  // reached_target stays false: caller escalates
          --n_active;
          continue;
        }
        if (checkpoint) stall_ref[c] = stats[c].relative_residual;
      }
    }
    if (n_active == 0) break;
    // x^(k) = x^(k-1) + alpha B r for the still-running columns. Frozen
    // columns ride along through the applies (their work is wasted, not
    // wrong) but are never written.
    precond(r, br);
    panel_axpy(alpha, br, x, active);
  }

  if (n_active > 0) {
    a.apply(x, r);
    double* rd = r.data();
    parallel_for(std::size_t{0}, n, [&](std::size_t i) {
      for (std::size_t c = 0; c < k; ++c) {
        rd[c * n + i] = bd[c * n + i] - rd[c * n + i];
      }
    });
    for (std::size_t c = 0; c < k; ++c) {
      if (!active[c]) continue;
      stats[c].relative_residual = norm2(r.col(c)) / b_norms[c];
      stats[c].iterations = cap;
      stats[c].reached_target = stats[c].relative_residual <= target;
    }
  }
  std::uint64_t total_iterations = 0;
  for (const IterationStats& st : stats) {
    total_iterations += static_cast<std::uint64_t>(st.iterations);
  }
  iteration_counter().add(total_iterations);
  span.arg("iterations", static_cast<double>(total_iterations));
  return stats;
}

}  // namespace parlap
