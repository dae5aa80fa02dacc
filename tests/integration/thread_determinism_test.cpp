// Determinism under varying OpenMP thread counts, for every randomized
// component. This is the property that makes the parallel implementation
// debuggable: any run is reproducible serially.
#include <gtest/gtest.h>

#include <numeric>

#include <omp.h>

#include "core/approx_schur.hpp"
#include "core/block_cholesky.hpp"
#include "core/five_dd.hpp"
#include "core/sparsify.hpp"
#include "core/spanning_tree.hpp"
#include "graph/generators.hpp"

namespace parlap {
namespace {

/// Runs `fn` at 1 thread and at max threads, returning both results.
template <typename Fn>
auto with_thread_counts(Fn&& fn) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  auto serial = fn();
  omp_set_num_threads(saved);
  auto parallel = fn();
  return std::pair{std::move(serial), std::move(parallel)};
}

void expect_same_graph(const Multigraph& a, const Multigraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e));
    EXPECT_EQ(a.edge_v(e), b.edge_v(e));
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e));  // bit-exact
  }
}

TEST(ThreadDeterminism, FiveDdSubset) {
  const Multigraph g = make_erdos_renyi(2000, 10000, 3);
  const auto [serial, parallel] = with_thread_counts([&] {
    return five_dd_subset(g, 7).f;
  });
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadDeterminism, BlockCholeskyApply) {
  const Multigraph g = make_grid2d(25, 25);
  const auto [serial, parallel] = with_thread_counts([&] {
    const BlockCholeskyChain chain = BlockCholeskyChain::build(g, 9);
    Vector b(static_cast<std::size_t>(g.num_vertices()));
    std::iota(b.begin(), b.end(), 0.0);
    project_out_ones(b);
    Vector y(b.size());
    chain.apply(b, y);
    return y;
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);
  }
}

TEST(ThreadDeterminism, ApproxSchur) {
  const Multigraph g = make_erdos_renyi(600, 3000, 5);
  std::vector<Vertex> c(40);
  std::iota(c.begin(), c.end(), Vertex{0});
  const auto [serial, parallel] = with_thread_counts(
      [&] { return approx_schur(g, c, 11).schur; });
  expect_same_graph(serial, parallel);
}

TEST(ThreadDeterminism, SpanningTree) {
  const Multigraph g = make_grid2d(15, 15);
  const auto [serial, parallel] =
      with_thread_counts([&] { return sample_spanning_tree(g, 13); });
  expect_same_graph(serial, parallel);
}

TEST(ThreadDeterminism, Sparsifier) {
  const Multigraph g = make_complete(120);
  const auto [serial, parallel] = with_thread_counts(
      [&] { return spectral_sparsify(g, 0.5, 15).graph; });
  expect_same_graph(serial, parallel);
}

}  // namespace
}  // namespace parlap
