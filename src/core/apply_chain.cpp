#include "core/apply_chain.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
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

/// Entries in staged row i of blk.
std::size_t row_length(const EliminationLevel::SubCsr& blk, std::size_t i) {
  return static_cast<std::size_t>(blk.off[i + 1] - blk.off[i]);
}

/// Stable counting sort of the staged rows `in` by key(i) < keys,
/// ascending, into out[0, in.size()); `count` is scratch.
template <typename Key>
void sort_rows(std::span<const Vertex> in, std::size_t keys, Key&& key,
               std::vector<std::size_t>& count, Vertex* out) {
  count.assign(keys + 1, 0);
  for (const Vertex i : in) ++count[key(static_cast<std::size_t>(i)) + 1];
  for (std::size_t k = 1; k < keys; ++k) count[k] += count[k - 1];
  for (const Vertex i : in) out[count[key(static_cast<std::size_t>(i))]++] = i;
}

/// The rows of a staged block with `rows` rows ordered by length, ties
/// in staged order: out[r] is the staged row packed as row r.
/// `staged` and `count` are scratch.
void order_by_length(const EliminationLevel::SubCsr& blk, std::size_t rows,
                     std::vector<Vertex>& staged,
                     std::vector<std::size_t>& count, Vertex* out) {
  staged.resize(rows);
  std::iota(staged.begin(), staged.end(), Vertex{0});
  std::size_t longest = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    longest = std::max(longest, row_length(blk, i));
  }
  sort_rows(staged, longest + 1,
            [&](std::size_t i) { return row_length(blk, i); }, count, out);
}

}  // namespace

void ApplyChain::finalize(std::span<const EliminationLevel> staging,
                          std::span<const Vertex> slots,
                          const GroundedFactor& base, int jacobi_terms,
                          std::uint64_t build_id, Precision storage) {
  PARLAP_CHECK(levels_.empty());  // finalize() runs once per chain
  PARLAP_CHECK(storage != Precision::kAuto);  // resolved before building
  // jacobi_solve's closed form for uncoupled rows holds for odd l only.
  PARLAP_CHECK(jacobi_terms % 2 == 1);
  const auto n0 = static_cast<Vertex>(slots.size());
  n0_ = n0;
  base_component_.resize(base.component.size());
  std::copy(base.component.begin(), base.component.end(),
            base_component_.data());
  base_n_ = base.n;
  base_components_ = base.components;
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
  PARLAP_CHECK(nf_total + static_cast<std::size_t>(base_n_) ==
               static_cast<std::size_t>(n0));
  levels_.reserve(staging.size());
  // AlignedBuffer growth first-touches the pages: finalize runs on the
  // engine worker that will traverse the chain, so they land on its node.
  f_lists_.resize(nf_total);
  cf_slots_.resize(cf_rows_total);
  off_.resize(off_total);
  nbr_.resize(data_total);
  slots_.resize(static_cast<std::size_t>(n0));
  slot_rows_.resize(static_cast<std::size_t>(n0));
  std::copy(slots.begin(), slots.end(), slots_.data());
  for (Vertex v = 0; v < n0; ++v) {
    slot_rows_[static_cast<std::size_t>(slots[static_cast<std::size_t>(v)])] = v;
  }

  // Each level's row layout: coupled F rows (non-empty ff row) first,
  // grouped by ff length, then fc length; the uncoupled rows after them,
  // grouped by fc length. f_order[f_base + r] is the staged row packed
  // as row r, f_pos its inverse, and each moved F vertex takes the slot
  // of its packed row (base slots stay).
  std::vector<Vertex> f_order(nf_total);
  std::vector<Vertex> f_pos(nf_total);
  std::vector<Vertex> by_fc;
  std::vector<Vertex> staged;
  std::vector<std::size_t> count;
  std::size_t f_base = 0;
  std::size_t cf_base = 0;
  std::size_t off_pos = 0;
  for (const EliminationLevel& lvl : staging) {
    const auto nf = static_cast<std::size_t>(lvl.nf);
    Level meta;
    meta.n = lvl.n;
    meta.nf = lvl.nf;
    meta.nc = lvl.nc;
    meta.cf_rows = static_cast<Vertex>(lvl.cf_rows.size());
    meta.f_base = f_base;
    meta.cf_base = cf_base;
    meta.ff_off = off_pos;
    meta.fc_off = meta.ff_off + nf + 1;
    meta.cf_off = meta.fc_off + nf + 1;
    off_pos = meta.cf_off + lvl.cf_rows.size() + 1;
    // By fc length, then (stable) by ff length with the empty rows last.
    by_fc.resize(nf);
    order_by_length(lvl.fc, nf, staged, count, by_fc.data());
    std::size_t longest_ff = 0;
    for (std::size_t i = 0; i < nf; ++i) {
      const std::size_t ff_len = row_length(lvl.ff, i);
      longest_ff = std::max(longest_ff, ff_len);
      if (ff_len > 0) {
        ++meta.nf_coupled;
      } else {
        // An uncoupled row sums no F copy into Y's diagonal.
        PARLAP_CHECK(std::bit_cast<std::uint64_t>(lvl.y_diag[i]) == 0);
      }
    }
    sort_rows(
        by_fc, longest_ff + 1,
        [&](std::size_t i) {
          const std::size_t ff_len = row_length(lvl.ff, i);
          return ff_len > 0 ? ff_len - 1 : longest_ff;
        },
        count, f_order.data() + f_base);
    for (std::size_t r = 0; r < nf; ++r) {
      const auto i = static_cast<std::size_t>(f_order[f_base + r]);
      f_pos[f_base + i] = static_cast<Vertex>(r);
      slots_[static_cast<std::size_t>(slot_rows_[f_base + i])] =
          static_cast<Vertex>(f_base + r);
    }
    levels_.push_back(meta);
    f_base += nf;
    cf_base += lvl.cf_rows.size();
  }
  for (Vertex v = 0; v < n0; ++v) {
    slot_rows_[static_cast<std::size_t>(slots_[static_cast<std::size_t>(v)])] = v;
  }

  if (storage == Precision::kFp32) {
    pack_levels(values_.emplace<ChainValues<float>>(), staging, base, f_order,
                f_pos);
  } else {
    pack_levels(values_.emplace<ChainValues<double>>(), staging, base, f_order,
                f_pos);
  }
}

template <typename T>
void ApplyChain::pack_levels(ChainValues<T>& v,
                             std::span<const EliminationLevel> staging,
                             const GroundedFactor& base,
                             std::span<const Vertex> f_order,
                             std::span<const Vertex> f_pos) {
  // Every value is narrowed to T here, once (a no-op for fp64).
  const auto to_t = [](double x) { return static_cast<T>(x); };
  v.base.resize(base.values.size());
  std::transform(base.values.begin(), base.values.end(), v.base.data(), to_t);
  v.inv_x.resize(f_order.size());
  v.y_diag.resize(f_order.size());
  v.w.resize(nbr_.size());

  std::size_t data_pos = 0;
  // Writes the staged rows order[0, rows) of blk as packed rows from
  // offsets() position `at` on, each row's entries in staged order, with
  // their columns mapped through `col`.
  const auto pack_rows = [&](const EliminationLevel::SubCsr& blk,
                             const Vertex* order, std::size_t rows,
                             std::size_t at, auto&& col) {
    for (std::size_t r = 0; r < rows; ++r) {
      off_[at + r] = static_cast<EdgeId>(data_pos);
      const auto i = static_cast<std::size_t>(order[r]);
      for (EdgeId p = blk.off[i]; p < blk.off[i + 1]; ++p) {
        const auto pz = static_cast<std::size_t>(p);
        nbr_[data_pos] = col(blk.nbr[pz]);
        v.w[data_pos] = to_t(blk.w[pz]);
        ++data_pos;
      }
    }
    off_[at + rows] = static_cast<EdgeId>(data_pos);
  };
  std::vector<Vertex> cf_order;
  std::vector<Vertex> staged;
  std::vector<std::size_t> count;
  for (std::size_t k = 0; k < staging.size(); ++k) {
    const EliminationLevel& lvl = staging[k];
    const Level& meta = levels_[k];
    const auto nf = static_cast<std::size_t>(meta.nf);
    const Vertex* order = f_order.data() + meta.f_base;
    const Vertex* pos = f_pos.data() + meta.f_base;
    for (std::size_t r = 0; r < nf; ++r) {
      const auto i = static_cast<std::size_t>(order[r]);
      f_lists_[meta.f_base + r] = lvl.f_list[i];
      v.inv_x[meta.f_base + r] = to_t(lvl.inv_x[i]);
      v.y_diag[meta.f_base + r] = to_t(lvl.y_diag[i]);
    }
    pack_rows(lvl.ff, order, nf, meta.ff_off, [&](Vertex f) {
      const Vertex r = pos[f];
      // Y is symmetric, so a coupled row's neighbours are coupled too.
      PARLAP_CHECK(r < meta.nf_coupled);
      return r;
    });
    pack_rows(lvl.fc, order, nf, meta.fc_off,
              [&](Vertex u) { return slots_[static_cast<std::size_t>(u)]; });
    // cf rows by length; their entries keep ascending staged F order.
    const auto cf_rows = static_cast<std::size_t>(meta.cf_rows);
    cf_order.resize(cf_rows);
    order_by_length(lvl.cf, cf_rows, staged, count, cf_order.data());
    pack_rows(lvl.cf, cf_order.data(), cf_rows, meta.cf_off,
              [&](Vertex f) { return pos[f]; });
    for (std::size_t q = 0; q < cf_rows; ++q) {
      cf_slots_[meta.cf_base + q] = slots_[static_cast<std::size_t>(
          lvl.cf_rows[static_cast<std::size_t>(cf_order[q])])];
    }
  }
}

template <typename T>
ApplyBuffers<T>& ApplyChain::prepare_workspace(ApplyWorkspace& ws,
                                               std::size_t cols) const {
  // Identity check, not a shape check: two chains can agree on depth and
  // n0 yet differ at inner levels (e.g. escalation rounds of the same
  // component), so sizes alone cannot prove the workspace fits — and the
  // block width is part of the identity, so k=1 scratch is never reused
  // unsized for a wider panel. A chain's storage type is fixed, so the id
  // also pins which buffer set was sized.
  auto& buf = std::get<ApplyBuffers<T>>(ws.buffers);
  if (ws.prepared_for == build_id_ && ws.prepared_cols == cols) return buf;
  std::size_t max_nf = 1;
  for (const Level& lvl : levels_) {
    max_nf = std::max(max_nf, static_cast<std::size_t>(lvl.nf));
  }
  buf.vec.resize(static_cast<std::size_t>(n0_) * cols);
  buf.jac_b.resize(max_nf * cols);
  buf.jac_cur.resize(max_nf * cols);
  buf.jac_tmp.resize(max_nf * cols);
  buf.scratch_f.resize(
      std::max(max_nf, static_cast<std::size_t>(base_components_)) * cols);
  ws.prepared_for = build_id_;
  ws.prepared_cols = cols;
  return buf;
}

template <typename T>
const T* ApplyChain::jacobi_solve(const Level& lvl, const ChainValues<T>& v,
                                  const kernels::KernelTableT<T>& kt,
                                  const T* b_f, std::size_t cols,
                                  ApplyBuffers<T>& buf) const {
  // Z b = sum_{i=0}^{l} X^-1 (-Y X^-1)^i b via the recurrence
  // x^(i) = X^-1 b - X^-1 Y x^(i-1)   (Algorithm 2, Jacobi procedure),
  // run on all `cols` columns per CSR sweep. Buffers are interleaved
  // (row i's columns contiguous); the sweep itself is the dispatched
  // csr_jacobi kernel.
  //
  // Only the coupled rows [0, nf_coupled) are swept. An uncoupled row has
  // an empty ff row and y_diag = +0.0, so each sweep would compute
  // xb - inv_x * (0 * cur): for finite values xb itself, except that a
  // -0.0 flips sign on every sweep. After an odd number l of sweeps
  // (finalize checks l) that is xb + 0.0, bit for bit, which such a row
  // gets in closed form; no coupled row reads it (Y is symmetric).
  const auto nf = static_cast<std::size_t>(lvl.nf);
  const auto nfc = static_cast<std::size_t>(lvl.nf_coupled);
  const T* inv_x = v.inv_x.data() + lvl.f_base;
  const T* y_diag = v.y_diag.data() + lvl.f_base;
  const EdgeId* off = off_.data() + lvl.ff_off;
  T* xb = buf.jac_b.data();
  T* cur = buf.jac_cur.data();
  T* tmp = buf.jac_tmp.data();

  // Native-T product: for float this equals the widen-multiply-narrow
  // sequence bit for bit (a float product rounds once either way).
  parallel_for(std::size_t{0}, nfc, [&](std::size_t i) {
    for (std::size_t c = 0; c < cols; ++c) {
      xb[i * cols + c] = static_cast<T>(inv_x[i] * b_f[i * cols + c]);
      cur[i * cols + c] = xb[i * cols + c];
    }
  });
  // l odd: the sweeps leave their result in the buffer tmp starts as,
  // and write only its coupled rows.
  parallel_for(nfc, nf, [&](std::size_t i) {
    for (std::size_t c = 0; c < cols; ++c) {
      tmp[i * cols + c] = static_cast<T>(inv_x[i] * b_f[i * cols + c]) + T(0);
    }
  });
  for (int it = 1; it <= jacobi_terms_; ++it) {
    // tmp = xb - X^-1 (Y cur), one CSR sweep for every column; each
    // column's arithmetic order is the scalar kernel's at every dispatch
    // level (lane = column, no FMA).
    kernels::for_row_blocks(nfc, [&](std::size_t lo, std::size_t hi) {
      kt.csr_jacobi(lo, hi, cols, off, nbr_.data(), v.w.data(), inv_x,
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
void ApplyChain::prefetch_level(std::size_t k, const ChainValues<T>& v) const {
  const Level& lvl = levels_[k];
  const auto nf = static_cast<std::size_t>(lvl.nf);
  const auto cf_rows = static_cast<std::size_t>(lvl.cf_rows);
  const auto cap = [](std::size_t bytes) {
    return std::min(bytes, kMaxPrefetchBytes);
  };
  kernels::prefetch_bytes(cf_slots_.data() + lvl.cf_base,
                          cap(cf_rows * sizeof(Vertex)));
  kernels::prefetch_bytes(v.inv_x.data() + lvl.f_base, cap(nf * sizeof(T)));
  kernels::prefetch_bytes(v.y_diag.data() + lvl.f_base, cap(nf * sizeof(T)));
  // The three offset rows are packed consecutively (ff, fc, cf), as is
  // the level's column/weight range they delimit.
  const std::size_t off_len = 2 * (nf + 1) + cf_rows + 1;
  kernels::prefetch_bytes(off_.data() + lvl.ff_off, cap(off_len * sizeof(EdgeId)));
  const auto data_lo = static_cast<std::size_t>(off_[lvl.ff_off]);
  const auto data_hi = static_cast<std::size_t>(off_[lvl.cf_off + cf_rows]);
  const std::size_t data_len = data_hi - data_lo;
  kernels::prefetch_bytes(nbr_.data() + data_lo, cap(data_len * sizeof(Vertex)));
  kernels::prefetch_bytes(v.w.data() + data_lo, cap(data_len * sizeof(T)));
}

void ApplyChain::apply_cols(const double* b, double* y, std::size_t cols,
                            std::size_t ld, ApplyWorkspace& ws) const {
  std::visit([&](const auto& v) { apply_values(v, b, y, cols, ld, ws); },
             values_);
}

template <typename T>
void ApplyChain::apply_values(const ChainValues<T>& v, const double* b,
                              double* y, std::size_t cols, std::size_t ld,
                              ApplyWorkspace& ws) const {
  PARLAP_TRACE_SPAN_N(apply_span, "chain.apply", "apply");
  apply_span.arg("cols", static_cast<double>(cols));
  apply_span.arg("levels", static_cast<double>(levels_.size()));
  const WallTimer apply_timer;
  ApplyBuffers<T>& buf = prepare_workspace<T>(ws, cols);
  const std::size_t d = levels_.size();
  const auto n0 = static_cast<std::size_t>(n0_);
  const kernels::KernelTableT<T>& kt = kernels::active<T>();
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
    if (k + 1 < d) prefetch_level(k + 1, v);

    // y_F = Z^(k) b_F, in place on the level's F slice (backward
    // substitution reads y_F back from there).
    std::memcpy(xf, jacobi_solve(lvl, v, kt, xf, cols, buf),
                nf * cols * sizeof(T));

    // b^(k+1) = y_C = b_C - L_CF y_F = b_C + sum_{c~f} w * y_F[f], added
    // in place into the slots of the C rows that have an F neighbour.
    kernels::for_row_blocks(
        static_cast<std::size_t>(lvl.cf_rows), [&](std::size_t lo, std::size_t hi) {
          kt.csr_fwd(lo, hi, cols, off_.data() + lvl.cf_off, nbr_.data(),
                     v.w.data(), cf_slots_.data() + lvl.cf_base, xf, x);
        });
  }

  // Base solve x^(d) = L_{G^(d)}^+ b^(d) (Algorithm 2, line 6), in place
  // on the trailing slots: the grounded factor's sweeps, the same code at
  // every dispatch level.
  grounded_solve(base_n_, base_components_, v.base.data(),
                 base_component_.data(), cols,
                 x + (n0 - static_cast<std::size_t>(base_n_)) * cols,
                 buf.scratch_f.data());

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
    if (k > 0) prefetch_level(k - 1, v);

    T* tf = buf.scratch_f.data();
    kernels::for_row_blocks(nf, [&](std::size_t lo, std::size_t hi) {
      kt.csr_bwd(lo, hi, cols, off_.data() + lvl.fc_off, nbr_.data(),
                 v.w.data(), x, tf);
    });
    const T* zf = jacobi_solve(lvl, v, kt, tf, cols, buf);

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

}  // namespace parlap
