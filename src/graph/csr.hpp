// Compressed adjacency representation of a multi-graph.
//
// Conversion between edge-list and adjacency-list representations is the
// paper's Lemma 2.7 ([BM10]): O(m) work, O(log m) depth. We realize it as a
// stable parallel counting sort (per-thread histograms + prefix scan), so
// adjacency order — and therefore everything sampled through per-vertex
// alias tables — is independent of the thread count.
#pragma once

#include <span>
#include <vector>

#include "graph/multigraph.hpp"
#include "support/types.hpp"

namespace parlap {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds the adjacency structure of `g`. Each undirected multi-edge
  /// (u, v) appears once in u's list and once in v's list.
  explicit CsrGraph(const Multigraph& g);

  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] EdgeId num_edges() const noexcept { return m_; }

  /// Number of incident multi-edge endpoints at `v` (its multi-degree).
  [[nodiscard]] EdgeId degree(Vertex v) const {
    return offsets_[static_cast<std::size_t>(v) + 1] -
           offsets_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] EdgeId offset(Vertex v) const {
    return offsets_[static_cast<std::size_t>(v)];
  }

  /// Neighbors of v, aligned with weights(v).
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return {nbr_.data() + offset(v), static_cast<std::size_t>(degree(v))};
  }
  [[nodiscard]] std::span<const Weight> weights(Vertex v) const {
    return {wgt_.data() + offset(v), static_cast<std::size_t>(degree(v))};
  }

  /// Weighted degree w(v), computed once at construction (deterministic:
  /// summed in adjacency order).
  [[nodiscard]] Weight weighted_degree(Vertex v) const {
    return wdeg_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::span<const Weight> weighted_degrees() const noexcept {
    return wdeg_;
  }

  [[nodiscard]] std::span<const EdgeId> offsets() const noexcept {
    return offsets_;
  }

 private:
  Vertex n_ = 0;
  EdgeId m_ = 0;
  std::vector<EdgeId> offsets_;  // size n+1
  std::vector<Vertex> nbr_;      // size 2m
  std::vector<Weight> wgt_;      // size 2m
  std::vector<Weight> wdeg_;     // size n
};

}  // namespace parlap
