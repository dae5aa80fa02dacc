#include "graph/multigraph.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "parallel/for_each.hpp"

namespace parlap {

std::vector<Weight> weighted_degrees(MultigraphView g) {
  const Vertex n = g.num_vertices();
  std::vector<Weight> out(static_cast<std::size_t>(n), 0.0);
  const EdgeId m = g.num_edges();
  if (m < (1 << 15)) {
    for (EdgeId e = 0; e < m; ++e) {
      out[static_cast<std::size_t>(g.edge_u(e))] += g.edge_weight(e);
      out[static_cast<std::size_t>(g.edge_v(e))] += g.edge_weight(e);
    }
    return out;
  }
  // Chunk-major partial arrays reduced per vertex in fixed chunk order:
  // bit-exact for every thread count (the chunk count depends only on the
  // graph, never on the machine). Scratch stays under ~128 MiB.
  const int chunks = std::max(
      1, std::min<int>(32, static_cast<int>((std::int64_t{1} << 24) /
                                            std::max<Vertex>(n, 1))));
  const EdgeId chunk_len = (m + chunks - 1) / chunks;
  std::vector<Weight> partial_scratch(
      static_cast<std::size_t>(chunks) * static_cast<std::size_t>(n), 0.0);
  Weight* partial = partial_scratch.data();
#pragma omp parallel for schedule(static)
  for (int c = 0; c < chunks; ++c) {
    Weight* local =
        partial + static_cast<std::size_t>(c) * static_cast<std::size_t>(n);
    const EdgeId lo = c * chunk_len;
    const EdgeId hi = std::min(m, lo + chunk_len);
    for (EdgeId e = lo; e < hi; ++e) {
      local[static_cast<std::size_t>(g.edge_u(e))] += g.edge_weight(e);
      local[static_cast<std::size_t>(g.edge_v(e))] += g.edge_weight(e);
    }
  }
  parallel_for(Vertex{0}, n, [&](Vertex v) {
    Weight sum = 0.0;
    for (int c = 0; c < chunks; ++c) {
      sum += partial[static_cast<std::size_t>(c) * static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(v)];
    }
    out[static_cast<std::size_t>(v)] = sum;
  });
  return out;
}

std::vector<Weight> Multigraph::weighted_degrees() const {
  return parlap::weighted_degrees(view());
}

Weight Multigraph::total_weight() const {
  // Serial-order partial sums (see vector_ops deterministic_sum): chunked
  // for parallelism but bit-identical at any thread count.
  const EdgeId m = num_edges();
  constexpr EdgeId kChunk = 1 << 14;
  const EdgeId chunks = (m + kChunk - 1) / kChunk;
  std::vector<Weight> partial(static_cast<std::size_t>(chunks), 0.0);
  parallel_for(EdgeId{0}, chunks, [&](EdgeId c) {
    const EdgeId lo = c * kChunk;
    const EdgeId hi = std::min(m, lo + kChunk);
    Weight s = 0.0;
    for (EdgeId e = lo; e < hi; ++e) s += edge_weight(e);
    partial[static_cast<std::size_t>(c)] = s;
  });
  Weight total = 0.0;
  for (const Weight p : partial) total += p;
  return total;
}

void Multigraph::validate() const {
  const EdgeId m = num_edges();
  std::atomic<bool> ok{true};
  parallel_for(EdgeId{0}, m, [&](EdgeId e) {
    const Vertex u = edge_u(e);
    const Vertex v = edge_v(e);
    const Weight w = edge_weight(e);
    if (u < 0 || u >= n_ || v < 0 || v >= n_ || u == v || !(w > 0.0) ||
        !std::isfinite(w)) {
      ok.store(false, std::memory_order_relaxed);
    }
  });
  PARLAP_CHECK_MSG(ok.load(), "multigraph failed validation (range, "
                              "self-loop, or weight positivity)");
}

}  // namespace parlap
