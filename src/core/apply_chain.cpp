#include "core/apply_chain.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "linalg/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace parlap {

namespace {

/// Cap on the bytes prefetched per packed array per level: enough for
/// every real level's index slice, bounded so a pathological level can't
/// flood the prefetch queue.
constexpr std::size_t kMaxPrefetchBytes = std::size_t{64} * 1024;

}  // namespace

void ApplyChain::finalize(std::span<const EliminationLevel> staging,
                          std::span<const Vertex> slots,
                          DenseMatrix base_pinv, Vertex base_n,
                          int jacobi_terms, std::uint64_t build_id,
                          Precision storage) {
  PARLAP_CHECK(levels_.empty());  // finalize() runs once per chain
  PARLAP_CHECK(storage != Precision::kAuto);  // resolved before building
  const auto n0 = static_cast<Vertex>(slots.size());
  n0_ = n0;
  storage_ = storage;
  const bool fp32 = storage == Precision::kFp32;
  // The dense base solve is the last persistent apply-path array: copy it
  // out of the (unaligned) DenseMatrix so it shares the packed arrays'
  // alignment and first-touch placement (narrowing to float here when the
  // chain stores fp32).
  const std::size_t base_elems =
      static_cast<std::size_t>(base_n) * static_cast<std::size_t>(base_n);
  if (fp32) {
    base_pinv_f_.resize(base_elems);
    std::transform(base_pinv.data(), base_pinv.data() + base_elems,
                   base_pinv_f_.data(),
                   [](double v) { return static_cast<float>(v); });
  } else {
    base_pinv_.resize(base_elems);
    std::copy(base_pinv.data(), base_pinv.data() + base_elems,
              base_pinv_.data());
  }
  base_n_ = base_n;
  jacobi_terms_ = jacobi_terms;
  build_id_ = build_id;

  std::size_t nf_total = 0;
  std::size_t cf_rows_total = 0;
  std::size_t off_total = 0;
  std::size_t data_total = 0;
  for (const EliminationLevel& lvl : staging) {
    nf_total += static_cast<std::size_t>(lvl.nf);
    cf_rows_total += lvl.cf_rows.size();
    off_total += 2 * (static_cast<std::size_t>(lvl.nf) + 1) +
                 lvl.cf_rows.size() + 1;
    data_total += lvl.ff.nbr.size() + lvl.fc.nbr.size() + lvl.cf.nbr.size();
  }
  PARLAP_CHECK(nf_total + static_cast<std::size_t>(base_n) ==
               static_cast<std::size_t>(n0));
  levels_.reserve(staging.size());
  // AlignedBuffer growth first-touches the pages under the active
  // NumaPolicy: finalize runs on the engine worker that will traverse
  // the chain, so "local" placement lands the arrays on its node.
  f_lists_.resize(nf_total);
  cf_slots_.resize(cf_rows_total);
  off_.resize(off_total);
  nbr_.resize(data_total);
  if (fp32) {
    inv_x_f_.resize(nf_total);
    y_diag_f_.resize(nf_total);
    w_f_.resize(data_total);
  } else {
    inv_x_.resize(nf_total);
    y_diag_.resize(nf_total);
    w_.resize(data_total);
  }

  const auto narrow = [](double v) { return static_cast<float>(v); };
  const auto slot_of = [slots](Vertex v) {
    return slots[static_cast<std::size_t>(v)];
  };
  std::size_t f_pos = 0;
  std::size_t cf_pos = 0;
  std::size_t off_pos = 0;
  std::size_t data_pos = 0;
  // Packs blk's `rows` rows; with `to_slots` its columns name input
  // vertices (fc) and are stored as their slots.
  const auto pack_block = [&](const EliminationLevel::SubCsr& blk,
                              std::size_t rows, bool to_slots) {
    const std::size_t base = off_pos;
    for (std::size_t i = 0; i <= rows; ++i) {
      off_[off_pos++] = blk.off[i] + static_cast<EdgeId>(data_pos);
    }
    if (to_slots) {
      std::transform(blk.nbr.begin(), blk.nbr.end(), nbr_.begin() + data_pos,
                     slot_of);
    } else {
      std::copy(blk.nbr.begin(), blk.nbr.end(), nbr_.begin() + data_pos);
    }
    if (fp32) {
      std::transform(blk.w.begin(), blk.w.end(), w_f_.begin() + data_pos,
                     narrow);
    } else {
      std::copy(blk.w.begin(), blk.w.end(), w_.begin() + data_pos);
    }
    data_pos += blk.nbr.size();
    return base;
  };

  for (const EliminationLevel& lvl : staging) {
    Level meta;
    meta.n = lvl.n;
    meta.nf = lvl.nf;
    meta.nc = lvl.nc;
    meta.f_base = f_pos;
    meta.cf_base = cf_pos;
    std::copy(lvl.f_list.begin(), lvl.f_list.end(), f_lists_.begin() + f_pos);
    if (fp32) {
      std::transform(lvl.inv_x.begin(), lvl.inv_x.end(),
                     inv_x_f_.begin() + f_pos, narrow);
      std::transform(lvl.y_diag.begin(), lvl.y_diag.end(),
                     y_diag_f_.begin() + f_pos, narrow);
    } else {
      std::copy(lvl.inv_x.begin(), lvl.inv_x.end(), inv_x_.begin() + f_pos);
      std::copy(lvl.y_diag.begin(), lvl.y_diag.end(), y_diag_.begin() + f_pos);
    }
    f_pos += static_cast<std::size_t>(lvl.nf);
    const auto nf = static_cast<std::size_t>(lvl.nf);
    meta.ff_off = pack_block(lvl.ff, nf, false);
    meta.fc_off = pack_block(lvl.fc, nf, true);
    meta.cf_rows = static_cast<Vertex>(lvl.cf_rows.size());
    meta.cf_off = pack_block(lvl.cf, lvl.cf_rows.size(), false);
    std::transform(lvl.cf_rows.begin(), lvl.cf_rows.end(),
                   cf_slots_.begin() + static_cast<std::ptrdiff_t>(cf_pos),
                   slot_of);
    cf_pos += lvl.cf_rows.size();
    levels_.push_back(meta);
  }

  slots_.resize(static_cast<std::size_t>(n0));
  slot_rows_.resize(static_cast<std::size_t>(n0));
  std::copy(slots.begin(), slots.end(), slots_.data());
  for (Vertex v = 0; v < n0; ++v) {
    slot_rows_[static_cast<std::size_t>(slots[static_cast<std::size_t>(v)])] = v;
  }
}

template <typename T>
void ApplyChain::prepare_workspace(ApplyWorkspace& ws,
                                   std::size_t cols) const {
  // Identity check, not a shape check: two chains can agree on depth and
  // n0 yet differ at inner levels (e.g. escalation rounds of the same
  // component), so sizes alone cannot prove the workspace fits — and the
  // block width is part of the identity, so k=1 scratch is never reused
  // unsized for a wider panel. A chain's storage precision is fixed, so
  // the id also pins which of the two buffer sets was sized.
  if (ws.prepared_for == build_id_ && ws.prepared_cols == cols) return;
  ApplyBuffers<T>& buf = ws.buffers<T>();
  std::size_t max_nf = 1;
  for (const Level& lvl : levels_) {
    max_nf = std::max(max_nf, static_cast<std::size_t>(lvl.nf));
  }
  buf.vec.resize(static_cast<std::size_t>(n0_) * cols);
  buf.jac_b.resize(max_nf * cols);
  buf.jac_cur.resize(max_nf * cols);
  buf.jac_tmp.resize(max_nf * cols);
  buf.scratch_f.resize(max_nf * cols);
  buf.base_out.resize(static_cast<std::size_t>(base_n_) * cols);
  ws.prepared_for = build_id_;
  ws.prepared_cols = cols;
}

template <typename T>
const T* ApplyChain::jacobi_solve(const Level& lvl, const T* b_f,
                                  std::size_t cols,
                                  ApplyWorkspace& ws) const {
  // Z b = sum_{i=0}^{l} X^-1 (-Y X^-1)^i b via the recurrence
  // x^(i) = X^-1 b - X^-1 Y x^(i-1)   (Algorithm 2, Jacobi procedure),
  // run on all `cols` columns per CSR sweep. Buffers are interleaved
  // (row i's columns contiguous); the sweep itself is the dispatched
  // csr_jacobi kernel.
  const auto nf = static_cast<std::size_t>(lvl.nf);
  const T* inv_x = inv_x_data<T>() + lvl.f_base;
  const T* y_diag = y_diag_data<T>() + lvl.f_base;
  const EdgeId* off = off_.data() + lvl.ff_off;
  ApplyBuffers<T>& buf = ws.buffers<T>();
  T* xb = buf.jac_b.data();
  T* cur = buf.jac_cur.data();
  T* tmp = buf.jac_tmp.data();
  const kernels::KernelTableT<T>& kt = kernels::active_for<T>();

  parallel_for(std::size_t{0}, nf, [&](std::size_t i) {
    // Native-T product: for float this equals the widen-multiply-narrow
    // sequence bit for bit (a float product rounds once either way).
    for (std::size_t c = 0; c < cols; ++c) {
      xb[i * cols + c] = static_cast<T>(inv_x[i] * b_f[i * cols + c]);
      cur[i * cols + c] = xb[i * cols + c];
    }
  });
  for (int it = 1; it <= jacobi_terms_; ++it) {
    // tmp = xb - X^-1 (Y cur), one CSR sweep for every column; each
    // column's arithmetic order is the scalar kernel's at every dispatch
    // level (lane = column, no FMA).
    kernels::for_row_blocks(nf, [&](std::size_t lo, std::size_t hi) {
      kt.csr_jacobi(lo, hi, cols, off, nbr_.data(), w_data<T>(), inv_x,
                    y_diag, xb, cur, tmp);
    });
    std::swap(cur, tmp);
  }
  return cur;
}

void ApplyChain::apply(std::span<const double> b, std::span<double> y,
                       ApplyWorkspace& ws) const {
  PARLAP_CHECK(b.size() == static_cast<std::size_t>(n0_));
  PARLAP_CHECK(y.size() == static_cast<std::size_t>(n0_));
  apply_cols(b.data(), y.data(), 1, static_cast<std::size_t>(n0_), ws);
}

void ApplyChain::apply(const Panel& b, Panel& y, ApplyWorkspace& ws) const {
  PARLAP_CHECK(b.rows() == static_cast<std::size_t>(n0_));
  PARLAP_CHECK(b.cols() >= 1);
  y.resize(b.rows(), b.cols());
  apply_cols(b.data(), y.data(), b.cols(), b.rows(), ws);
}

template <typename T>
void ApplyChain::prefetch_level(std::size_t k) const {
  const Level& lvl = levels_[k];
  const auto nf = static_cast<std::size_t>(lvl.nf);
  const auto cf_rows = static_cast<std::size_t>(lvl.cf_rows);
  const auto cap = [](std::size_t bytes) {
    return std::min(bytes, kMaxPrefetchBytes);
  };
  kernels::prefetch_bytes(cf_slots_.data() + lvl.cf_base,
                          cap(cf_rows * sizeof(Vertex)));
  kernels::prefetch_bytes(inv_x_data<T>() + lvl.f_base, cap(nf * sizeof(T)));
  kernels::prefetch_bytes(y_diag_data<T>() + lvl.f_base, cap(nf * sizeof(T)));
  // The three offset rows are packed consecutively (ff, fc, cf), as is
  // the level's nbr_/w_ data range they delimit.
  const std::size_t off_len = 2 * (nf + 1) + cf_rows + 1;
  kernels::prefetch_bytes(off_.data() + lvl.ff_off, cap(off_len * sizeof(EdgeId)));
  const auto data_lo = static_cast<std::size_t>(off_[lvl.ff_off]);
  const auto data_hi = static_cast<std::size_t>(off_[lvl.cf_off + cf_rows]);
  const std::size_t data_len = data_hi - data_lo;
  kernels::prefetch_bytes(nbr_.data() + data_lo, cap(data_len * sizeof(Vertex)));
  kernels::prefetch_bytes(w_data<T>() + data_lo, cap(data_len * sizeof(T)));
}

void ApplyChain::apply_cols(const double* b, double* y, std::size_t cols,
                            std::size_t ld, ApplyWorkspace& ws) const {
  if (storage_ == Precision::kFp32) {
    apply_cols_t<float>(b, y, cols, ld, ws);
  } else {
    apply_cols_t<double>(b, y, cols, ld, ws);
  }
}

template <typename T>
void ApplyChain::apply_cols_t(const double* b, double* y, std::size_t cols,
                              std::size_t ld, ApplyWorkspace& ws) const {
  PARLAP_TRACE_SPAN_N(apply_span, "chain.apply", "apply");
  apply_span.arg("cols", static_cast<double>(cols));
  apply_span.arg("levels", static_cast<double>(levels_.size()));
  const WallTimer apply_timer;
  prepare_workspace<T>(ws, cols);
  ApplyBuffers<T>& buf = ws.buffers<T>();
  const std::size_t d = levels_.size();
  const auto n0 = static_cast<std::size_t>(n0_);
  const kernels::KernelTableT<T>& kt = kernels::active_for<T>();
  T* x = buf.vec.data();

  // Panel (column-major, leading dimension ld) -> interleaved apply
  // vector in slot order: a gather, so each thread writes its own slot
  // range (fp32 chains narrow here: the panel stays double at the API
  // surface).
  parallel_for(std::size_t{0}, n0, [&](std::size_t s) {
    const auto r = static_cast<std::size_t>(slot_rows_[s]);
    for (std::size_t c = 0; c < cols; ++c) {
      x[s * cols + c] = static_cast<T>(b[c * ld + r]);
    }
  });

  // Forward substitution (Algorithm 2, lines 3-5).
  for (std::size_t k = 0; k < d; ++k) {
    PARLAP_TRACE_SPAN_N(level_span, "chain.level", "apply");
    level_span.arg("level", static_cast<double>(k));
    level_span.arg("dir", 0.0);  // forward substitution
    const Level& lvl = levels_[k];
    const auto nf = static_cast<std::size_t>(lvl.nf);
    T* xf = x + lvl.f_base * cols;

    // Pull the NEXT level's packed slices toward the cache while this
    // level's sweeps run out of the current one.
    if (k + 1 < d) prefetch_level<T>(k + 1);

    // y_F = Z^(k) b_F, in place on the level's F slice (backward
    // substitution reads y_F back from there).
    std::memcpy(xf, jacobi_solve<T>(lvl, xf, cols, ws), nf * cols * sizeof(T));

    // b^(k+1) = y_C = b_C - L_CF y_F = b_C + sum_{c~f} w * y_F[f], added
    // in place into the slots of the C rows that have an F neighbour.
    kernels::for_row_blocks(
        static_cast<std::size_t>(lvl.cf_rows), [&](std::size_t lo, std::size_t hi) {
          kt.csr_fwd(lo, hi, cols, off_.data() + lvl.cf_off, nbr_.data(),
                     w_data<T>(), cf_slots_.data() + lvl.cf_base, xf, x);
        });
  }

  // Base solve x^(d) = L_{G^(d)}^+ b^(d) (Algorithm 2, line 6) on the
  // trailing slots: row-dot products per column, identical order to
  // DenseMatrix::apply.
  {
    const auto bn = static_cast<std::size_t>(base_n_);
    T* xb = x + (n0 - bn) * cols;
    T* out = buf.base_out.data();
    kernels::for_row_blocks(bn, [&](std::size_t lo, std::size_t hi) {
      kt.dense_rows(lo, hi, cols, bn, base_pinv_data<T>(), xb, out);
    });
    std::memcpy(xb, out, bn * cols * sizeof(T));
  }

  // Backward substitution (lines 7-8): x_F = y_F - Z^(k) (L_FC x_C). The
  // fc columns are slots, so x_C is read where the deeper levels left it.
  for (std::size_t k = d; k-- > 0;) {
    PARLAP_TRACE_SPAN_N(level_span, "chain.level", "apply");
    level_span.arg("level", static_cast<double>(k));
    level_span.arg("dir", 1.0);  // backward substitution
    const Level& lvl = levels_[k];
    const auto nf = static_cast<std::size_t>(lvl.nf);
    T* xf = x + lvl.f_base * cols;

    // Walking back up the chain: the PREVIOUS level's slices are next.
    if (k > 0) prefetch_level<T>(k - 1);

    T* tf = buf.scratch_f.data();
    kernels::for_row_blocks(nf, [&](std::size_t lo, std::size_t hi) {
      kt.csr_bwd(lo, hi, cols, off_.data() + lvl.fc_off, nbr_.data(),
                 w_data<T>(), x, tf);
    });
    const T* zf = jacobi_solve<T>(lvl, tf, cols, ws);

    parallel_for(std::size_t{0}, nf, [&](std::size_t i) {
      // Native-T difference: bit-equal to widen-subtract-narrow.
      for (std::size_t c = 0; c < cols; ++c) {
        xf[i * cols + c] = static_cast<T>(xf[i * cols + c] - zf[i * cols + c]);
      }
    });
  }

  // Interleaved apply vector -> panel (column-major, leading dimension
  // ld), gathering each input row from its slot; float->double widening
  // is exact, so pack-out never rounds.
  parallel_for(std::size_t{0}, n0, [&](std::size_t i) {
    const auto s = static_cast<std::size_t>(slots_[i]);
    for (std::size_t c = 0; c < cols; ++c) {
      y[c * ld + i] = static_cast<double>(x[s * cols + c]);
    }
  });

  // Cumulative process-wide apply telemetry (references cached; the
  // per-apply cost is a few relaxed atomics against a >= microsecond
  // traversal).
  static obs::LatencyHistogram& apply_hist =
      obs::MetricsRegistry::global().histogram("parlap.chain.apply_seconds");
  static obs::Counter& applies =
      obs::MetricsRegistry::global().counter("parlap.chain.applies");
  apply_hist.record_seconds(apply_timer.seconds());
  applies.add();
}

template void ApplyChain::apply_cols_t<double>(const double*, double*,
                                               std::size_t, std::size_t,
                                               ApplyWorkspace&) const;
template void ApplyChain::apply_cols_t<float>(const double*, double*,
                                              std::size_t, std::size_t,
                                              ApplyWorkspace&) const;

}  // namespace parlap
