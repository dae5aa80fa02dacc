// Connected-component utilities.
//
// The solver requires connected inputs per component (Fact 2.3: the kernel
// of L is span{1} iff G is connected); the top-level API uses these to
// split a system into independent per-component solves.
#pragma once

#include <vector>

#include "graph/multigraph.hpp"
#include "support/types.hpp"

namespace parlap {

struct Components {
  /// Component label per vertex in [0, count); labels are contiguous and
  /// assigned in order of the smallest vertex id in each component.
  std::vector<Vertex> label;
  Vertex count = 0;

  [[nodiscard]] bool connected() const noexcept { return count <= 1; }
};

/// Union-find with path halving; O(m alpha(n)).
[[nodiscard]] Components connected_components(MultigraphView g);

[[nodiscard]] bool is_connected(const Multigraph& g);

}  // namespace parlap
