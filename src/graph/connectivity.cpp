#include "graph/connectivity.hpp"

#include <algorithm>
#include <numeric>

namespace parlap {

namespace {

Vertex find_root(std::vector<Vertex>& parent, Vertex x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    // Path halving keeps the tree shallow without recursion.
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

}  // namespace

Components connected_components(MultigraphView g) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), Vertex{0});

  const EdgeId m = g.num_edges();
  for (EdgeId e = 0; e < m; ++e) {
    const Vertex ru = find_root(parent, g.edge_u(e));
    const Vertex rv = find_root(parent, g.edge_v(e));
    if (ru != rv) parent[static_cast<std::size_t>(std::max(ru, rv))] = std::min(ru, rv);
  }

  Components comps;
  comps.label.assign(static_cast<std::size_t>(n), kInvalidVertex);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex root = find_root(parent, v);
    if (comps.label[static_cast<std::size_t>(root)] == kInvalidVertex) {
      comps.label[static_cast<std::size_t>(root)] = comps.count++;
    }
    comps.label[static_cast<std::size_t>(v)] =
        comps.label[static_cast<std::size_t>(root)];
  }
  return comps;
}

bool is_connected(const Multigraph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).connected();
}

}  // namespace parlap
