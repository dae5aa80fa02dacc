// CSR conversion tests (Lemma 2.7): totals, symmetry, weighted degrees,
// determinism of adjacency order, and consistency on large graphs where
// the chunked parallel scatter kicks in.
#include <gtest/gtest.h>

#include <map>

#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace parlap {
namespace {

TEST(Csr, TriangleBasics) {
  Multigraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  const CsrGraph csr(g);
  EXPECT_EQ(csr.num_vertices(), 3);
  EXPECT_EQ(csr.num_edges(), 3);
  EXPECT_EQ(csr.degree(0), 2);
  EXPECT_DOUBLE_EQ(csr.weighted_degree(0), 4.0);
  EXPECT_DOUBLE_EQ(csr.weighted_degree(1), 3.0);
  EXPECT_DOUBLE_EQ(csr.weighted_degree(2), 5.0);
}

TEST(Csr, EveryEdgeAppearsTwice) {
  const Multigraph g = make_erdos_renyi(200, 800, 1);
  const CsrGraph csr(g);
  EdgeId total = 0;
  for (Vertex v = 0; v < csr.num_vertices(); ++v) total += csr.degree(v);
  EXPECT_EQ(total, 2 * g.num_edges());
}

TEST(Csr, AdjacencyMatchesEdgeList) {
  const Multigraph g = make_erdos_renyi(50, 300, 2);
  const CsrGraph csr(g);
  // Count (u, v, w) incidences from both representations.
  std::map<std::tuple<Vertex, Vertex, Weight>, int> from_edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ++from_edges[{g.edge_u(e), g.edge_v(e), g.edge_weight(e)}];
    ++from_edges[{g.edge_v(e), g.edge_u(e), g.edge_weight(e)}];
  }
  std::map<std::tuple<Vertex, Vertex, Weight>, int> from_csr;
  for (Vertex v = 0; v < csr.num_vertices(); ++v) {
    const auto nbrs = csr.neighbors(v);
    const auto ws = csr.weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      ++from_csr[{v, nbrs[k], ws[k]}];
    }
  }
  EXPECT_EQ(from_edges, from_csr);
}

TEST(Csr, LargeGraphChunkedScatterConsistent) {
  // Big enough that the multi-chunk deterministic scatter is active.
  const Multigraph g = make_erdos_renyi(5000, 400000, 3);
  const CsrGraph csr(g);
  EdgeId total = 0;
  double weight_total = 0.0;
  for (Vertex v = 0; v < csr.num_vertices(); ++v) {
    total += csr.degree(v);
    weight_total += csr.weighted_degree(v);
  }
  EXPECT_EQ(total, 2 * g.num_edges());
  EXPECT_NEAR(weight_total, 2.0 * g.total_weight(), 1e-6);
}

TEST(Csr, AdjacencyOrderFollowsEdgeOrder) {
  // Stable counting sort => incidences appear in edge-list order.
  Multigraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(0, 3, 3.0);
  const CsrGraph csr(g);
  const auto nbrs = csr.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_EQ(nbrs[2], 3);
}

TEST(Csr, IsolatedVertices) {
  Multigraph g(5);
  g.add_edge(1, 3, 1.0);
  const CsrGraph csr(g);
  EXPECT_EQ(csr.degree(0), 0);
  EXPECT_EQ(csr.degree(2), 0);
  EXPECT_EQ(csr.degree(4), 0);
  EXPECT_DOUBLE_EQ(csr.weighted_degree(0), 0.0);
  EXPECT_TRUE(csr.neighbors(0).empty());
}

}  // namespace
}  // namespace parlap
