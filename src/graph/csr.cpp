#include "graph/csr.hpp"

#include <algorithm>

#include "parallel/for_each.hpp"
#include "parallel/scan.hpp"

namespace parlap {

namespace {

/// Number of edge chunks used by the stable scatter; capped so the
/// (chunks x n) histogram stays within a fixed memory budget.
int scatter_chunks(Vertex n) {
  const std::int64_t budget_entries = std::int64_t{1} << 25;  // 128 MiB of i32
  const std::int64_t cap = budget_entries / std::max<std::int64_t>(n, 1);
  return static_cast<int>(
      std::clamp<std::int64_t>(cap, 1, thread_count()));
}

}  // namespace

CsrGraph::CsrGraph(const Multigraph& g)
    : n_(g.num_vertices()), m_(g.num_edges()) {
  const EdgeId m = m_;
  const auto nn = static_cast<std::size_t>(n_);
  offsets_.assign(nn + 1, 0);
  nbr_.resize(static_cast<std::size_t>(2 * m));
  wgt_.resize(static_cast<std::size_t>(2 * m));

  const int chunks = scatter_chunks(n_);
  const EdgeId chunk_len = (m + chunks - 1) / std::max(chunks, 1);

  // Pass 1: per-chunk histograms of endpoint counts (stable counting sort).
  std::vector<std::int32_t> hist(static_cast<std::size_t>(chunks) * nn, 0);
#pragma omp parallel for schedule(static) num_threads(chunks)
  for (int c = 0; c < chunks; ++c) {
    std::int32_t* local = hist.data() + static_cast<std::size_t>(c) * nn;
    const EdgeId lo = c * chunk_len;
    const EdgeId hi = std::min(m, lo + chunk_len);
    for (EdgeId e = lo; e < hi; ++e) {
      ++local[static_cast<std::size_t>(g.edge_u(e))];
      ++local[static_cast<std::size_t>(g.edge_v(e))];
    }
  }

  // Offsets = scan over total per-vertex counts; per-chunk bases follow by
  // scanning the chunk dimension for each vertex.
  parallel_for(Vertex{0}, n_, [&](Vertex v) {
    EdgeId total = 0;
    for (int c = 0; c < chunks; ++c)
      total += hist[static_cast<std::size_t>(c) * nn + static_cast<std::size_t>(v)];
    offsets_[static_cast<std::size_t>(v)] = total;
  });
  offsets_[nn] = 0;
  exclusive_scan(std::span<EdgeId>(offsets_.data(), nn + 1));

  // Pass 2: deterministic placement. base[c][v] = offsets[v] + counts of
  // chunks before c; each chunk then scatters its edges in order.
  std::vector<EdgeId> base(static_cast<std::size_t>(chunks) * nn);
  parallel_for(Vertex{0}, n_, [&](Vertex v) {
    EdgeId run = offsets_[static_cast<std::size_t>(v)];
    for (int c = 0; c < chunks; ++c) {
      base[static_cast<std::size_t>(c) * nn + static_cast<std::size_t>(v)] = run;
      run += hist[static_cast<std::size_t>(c) * nn + static_cast<std::size_t>(v)];
    }
  });

#pragma omp parallel for schedule(static) num_threads(chunks)
  for (int c = 0; c < chunks; ++c) {
    EdgeId* local = base.data() + static_cast<std::size_t>(c) * nn;
    const EdgeId lo = c * chunk_len;
    const EdgeId hi = std::min(m, lo + chunk_len);
    for (EdgeId e = lo; e < hi; ++e) {
      const Vertex u = g.edge_u(e);
      const Vertex v = g.edge_v(e);
      const Weight w = g.edge_weight(e);
      const auto pu = static_cast<std::size_t>(local[static_cast<std::size_t>(u)]++);
      nbr_[pu] = v;
      wgt_[pu] = w;
      const auto pv = static_cast<std::size_t>(local[static_cast<std::size_t>(v)]++);
      nbr_[pv] = u;
      wgt_[pv] = w;
    }
  }

  // Weighted degrees, summed in (deterministic) adjacency order.
  wdeg_.resize(nn);
  parallel_for(Vertex{0}, n_, [&](Vertex v) {
    Weight sum = 0.0;
    for (const Weight w : weights(v)) sum += w;
    wdeg_[static_cast<std::size_t>(v)] = sum;
  });
}

}  // namespace parlap
