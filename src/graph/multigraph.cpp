#include "graph/multigraph.hpp"

#include <atomic>
#include <cmath>

#include "parallel/for_each.hpp"

namespace parlap {

std::vector<Weight> Multigraph::weighted_degrees() const {
  std::vector<Weight> out(static_cast<std::size_t>(n_), 0.0);
  for (std::size_t e = 0; e < u_.size(); ++e) {
    out[static_cast<std::size_t>(u_[e])] += w_[e];
    out[static_cast<std::size_t>(v_[e])] += w_[e];
  }
  return out;
}

Weight Multigraph::total_weight() const {
  Weight total = 0.0;
  deterministic_sums(static_cast<std::size_t>(num_edges()), {&total, 1},
                     [&](std::size_t e, std::size_t) {
                       return edge_weight(static_cast<EdgeId>(e));
                     });
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
