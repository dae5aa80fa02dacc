#include "core/pcg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace parlap {

namespace {

/// Iterations between true-residual checks of the running columns.
constexpr int kCheckInterval = 10;

/// Cumulative outer-iteration count across every PCG run in the
/// process, summed over panel columns (per-run counts stay in
/// IterationStats).
obs::Counter& iteration_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("parlap.pcg.iterations");
  return c;
}

/// t = b - A x for every column, and out[c] = ||t.col(c)|| / b_norms[c].
void true_residual(const LaplacianOperator& a, const Panel& b, const Panel& x,
                   std::span<const double> b_norms, Panel& t,
                   std::vector<double>& out) {
  a.apply(x, t);
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  const double* bd = b.data();
  double* td = t.data();
  kernels::for_row_blocks(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = 0; c < k; ++c) {
      const double* bc = bd + c * n;
      double* tc = td + c * n;
      for (std::size_t i = lo; i < hi; ++i) tc[i] = bc[i] - tc[i];
    }
  });
  out.resize(k);
  panel_col_norms(t, out);
  for (std::size_t c = 0; c < k; ++c) {
    if (b_norms[c] > 0.0) out[c] /= b_norms[c];
  }
}

}  // namespace

std::vector<IterationStats> panel_pcg(const LaplacianOperator& a,
                                      const PanelMap& precond, const Panel& b,
                                      Panel& x, double eps,
                                      const OuterOptions& opts,
                                      PcgWorkspace* ws) {
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  PARLAP_CHECK(n == static_cast<std::size_t>(a.dimension()));
  PARLAP_CHECK(k >= 1);
  PARLAP_CHECK(eps > 0.0 && eps < 1.0);
  PcgWorkspace local;
  PcgWorkspace& w = ws != nullptr ? *ws : local;

  PARLAP_TRACE_SPAN_N(span, "pcg.panel", "solve");
  span.arg("cols", static_cast<double>(k));
  const int cap =
      opts.max_iterations > 0
          ? opts.max_iterations
          : std::max(1, static_cast<int>(
                            std::ceil(std::exp(2.0) * std::log(1.0 / eps))));
  const double target =
      opts.residual_target >= 0.0 ? opts.residual_target : eps;

  std::vector<IterationStats> stats(k);
  std::vector<double> b_norms(k);
  panel_col_norms(b, b_norms);

  // active[c] != 0 while column c still iterates; a frozen column's x is
  // never written again, which is what makes each column's history
  // identical to its width-1 solve.
  std::vector<unsigned char> active(k, 1);
  std::size_t n_active = k;
  auto stop = [&](std::size_t c) {
    active[c] = 0;
    --n_active;
  };
  for (std::size_t c = 0; c < k; ++c) {
    if (b_norms[c] == 0.0) {
      stop(c);
      stats[c].reached_target = true;  // x.col(c) stays 0
    }
  }

  // x_0 = 0, r_0 = b, z_0 = M r_0, p_0 = z_0.
  x.resize(n, k);
  panel_fill(x, 0.0);
  w.r.resize(n, k);
  panel_assign(w.r, b);
  w.r_prev.resize(n, k);
  // The best verified iterate per column, x = 0 (residual 1) until a
  // check finds a lower true residual.
  w.x_best.resize(n, k);
  panel_fill(w.x_best, 0.0);
  std::vector<double> best(k, 1.0);
  precond(w.r, w.work);  // z_0
  w.p.resize(n, k);
  panel_assign(w.p, w.work);
  std::vector<double> rz(k), rz_new(k), rz_prev(k), p_ap(k), alpha(k, 0.0),
      beta(k, 0.0), res(k), true_res;
  panel_col_dots(w.r, w.work, rz);

  std::vector<double> stall_ref(k, std::numeric_limits<double>::infinity());
  std::vector<unsigned char> check(k, 0);
  double* xd = x.data();

  for (int it = 1; it <= cap && n_active > 0; ++it) {
    a.apply(w.p, w.work);  // A p
    panel_col_dots(w.p, w.work, p_ap);
    for (std::size_t c = 0; c < k; ++c) {
      if (!active[c]) continue;
      alpha[c] = rz[c] / p_ap[c];
      // Breakdown: <p, Ap> <= 0 on the semidefinite system, or a
      // non-finite step. The column ends with its best iterate.
      if (!(p_ap[c] > 0.0) || !std::isfinite(alpha[c])) stop(c);
    }
    if (n_active == 0) break;

    // x += alpha p and r -= alpha Ap, keeping r_{k-1} for the flexible
    // beta: one pass over the panel.
    {
      const double* pd = w.p.data();
      const double* apd = w.work.data();
      double* rd = w.r.data();
      double* rpd = w.r_prev.data();
      kernels::for_row_blocks(n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = 0; c < k; ++c) {
          if (!active[c]) continue;
          const double al = alpha[c];
          const std::size_t o = c * n;
          for (std::size_t i = lo; i < hi; ++i) {
            xd[o + i] += al * pd[o + i];
            rpd[o + i] = rd[o + i];
            rd[o + i] -= al * apd[o + i];
          }
        }
      });
    }
    panel_col_norms(w.r, res);
    bool any_check = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (!active[c]) continue;
      res[c] /= b_norms[c];
      stats[c].iterations = it;
      check[c] = res[c] <= target || it % kCheckInterval == 0;
      any_check = any_check || check[c];
    }

    if (any_check) {
      // Recompute b - A x: a column converges only on its true residual,
      // and otherwise continues from it.
      true_residual(a, b, x, b_norms, w.work, true_res);
      for (std::size_t c = 0; c < k; ++c) {
        if (!active[c] || !check[c]) continue;
        if (true_res[c] <= target) {
          stats[c].reached_target = true;
          stats[c].relative_residual = true_res[c];
          stop(c);
          continue;
        }
        if (true_res[c] < best[c]) {
          best[c] = true_res[c];
          assign(w.x_best.col(c), x.col(c));
        }
        assign(w.r.col(c), w.work.col(c));
        res[c] = true_res[c];
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (!active[c]) continue;
      if (!std::isfinite(res[c])) {
        stop(c);
        continue;
      }
      if (opts.stall_window > 0 && it % opts.stall_window == 0) {
        // Per-column checkpoints, so a stalled column's history still
        // equals its width-1 solve.
        if (res[c] > stall_ref[c] * opts.stall_improvement) {
          stop(c);  // reached_target stays false: the caller escalates
          continue;
        }
        stall_ref[c] = res[c];
      }
    }
    if (n_active == 0 || it == cap) break;  // no apply for a step never taken

    precond(w.r, w.work);  // z
    panel_col_dots(w.r, w.work, rz_new);
    panel_col_dots(w.r_prev, w.work, rz_prev);
    for (std::size_t c = 0; c < k; ++c) {
      if (!active[c]) continue;
      beta[c] = (rz_new[c] - rz_prev[c]) / rz[c];
      rz[c] = rz_new[c];
      if (!std::isfinite(beta[c])) stop(c);
    }
    // p = z + beta p: one pass over the panel.
    const double* zd = w.work.data();
    double* pd = w.p.data();
    kernels::for_row_blocks(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t c = 0; c < k; ++c) {
        if (!active[c]) continue;
        const double bt = beta[c];
        const std::size_t o = c * n;
        for (std::size_t i = lo; i < hi; ++i) {
          pd[o + i] = zd[o + i] + bt * pd[o + i];
        }
      }
    });
  }

  // Columns that end unconverged (cap, stall, breakdown) return the
  // better of their last and their best verified iterate.
  if (std::any_of(stats.begin(), stats.end(),
                  [](const IterationStats& st) { return !st.reached_target; })) {
    true_residual(a, b, x, b_norms, w.work, true_res);
    for (std::size_t c = 0; c < k; ++c) {
      IterationStats& st = stats[c];
      if (st.reached_target) continue;
      st.relative_residual = true_res[c];
      st.reached_target = true_res[c] <= target;
      if (!st.reached_target && !(true_res[c] <= best[c])) {
        st.relative_residual = best[c];
        assign(x.col(c), w.x_best.col(c));
      }
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
