// Weighted undirected multi-graph, the object the paper's algorithms are
// written against (§2: "we have written our algorithms completely with
// respect to the multi-graphs instead of matrices").
//
// Storage is struct-of-arrays over multi-edges; parallel producers size the
// edge arrays up front and write disjoint slots.
//
// MultigraphView is the non-owning companion: the same read surface over
// edge arrays owned by someone else (a Multigraph, or the chain build's
// in-place level graph). Multigraph::adopt() and swap_edge_arrays() move
// edge arrays in and out of an owning graph, never by copy.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/types.hpp"

namespace parlap {

class Multigraph;

/// Non-owning view of a multigraph's edge arrays. Cheap to copy; valid
/// only while the owner of the underlying arrays is. Every read-only
/// algorithm in the chain-construction pipeline takes this (a Multigraph
/// converts implicitly).
class MultigraphView {
 public:
  MultigraphView() = default;
  MultigraphView(Vertex num_vertices, std::span<const Vertex> u,
                 std::span<const Vertex> v, std::span<const Weight> w)
      : n_(num_vertices), u_(u), v_(v), w_(w) {
    PARLAP_DCHECK(u_.size() == v_.size() && v_.size() == w_.size());
  }
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit view
  MultigraphView(const Multigraph& g);

  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(u_.size());
  }

  [[nodiscard]] Vertex edge_u(EdgeId e) const {
    return u_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] Vertex edge_v(EdgeId e) const {
    return v_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] Weight edge_weight(EdgeId e) const {
    return w_[static_cast<std::size_t>(e)];
  }

  [[nodiscard]] std::span<const Vertex> us() const noexcept { return u_; }
  [[nodiscard]] std::span<const Vertex> vs() const noexcept { return v_; }
  [[nodiscard]] std::span<const Weight> ws() const noexcept { return w_; }

 private:
  Vertex n_ = 0;
  std::span<const Vertex> u_;
  std::span<const Vertex> v_;
  std::span<const Weight> w_;
};

class Multigraph {
 public:
  Multigraph() = default;
  explicit Multigraph(Vertex num_vertices) : n_(num_vertices) {
    PARLAP_CHECK(num_vertices >= 0);
  }

  /// Takes ownership of already-built edge arrays without copying (the
  /// buffer-adoption path: producers fill plain vectors — possibly
  /// recycled arena storage — and hand them over by move). The three
  /// vectors must have equal sizes; contents are validated only in debug
  /// builds (same contract as set_edge).
  [[nodiscard]] static Multigraph adopt(Vertex num_vertices,
                                        std::vector<Vertex>&& u,
                                        std::vector<Vertex>&& v,
                                        std::vector<Weight>&& w) {
    PARLAP_CHECK(num_vertices >= 0);
    PARLAP_CHECK(u.size() == v.size() && v.size() == w.size());
    Multigraph g(num_vertices);
    g.u_ = std::move(u);
    g.v_ = std::move(v);
    g.w_ = std::move(w);
    return g;
  }

  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(u_.size());
  }

  /// Exchanges the edge arrays with caller storage without copying (the
  /// way back from adopt(): an in-place consumer such as the chain
  /// build's LevelGraph borrows them and swaps them back when done).
  /// Between the swaps the graph holds whatever the caller passed in.
  void swap_edge_arrays(std::vector<Vertex>& u, std::vector<Vertex>& v,
                        std::vector<Weight>& w) noexcept {
    u_.swap(u);
    v_.swap(v);
    w_.swap(w);
  }

  /// Appends one multi-edge. Self-loops are rejected: they contribute
  /// nothing to a Laplacian and the walk algorithms assume their absence.
  void add_edge(Vertex u, Vertex v, Weight w) {
    PARLAP_DCHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
    PARLAP_CHECK_MSG(u != v, "self-loop at vertex " << u);
    PARLAP_CHECK_MSG(w > 0.0, "non-positive edge weight " << w);
    u_.push_back(u);
    v_.push_back(v);
    w_.push_back(w);
  }

  void reserve_edges(EdgeId m) {
    u_.reserve(static_cast<std::size_t>(m));
    v_.reserve(static_cast<std::size_t>(m));
    w_.reserve(static_cast<std::size_t>(m));
  }

  /// Resizes the edge arrays so parallel producers can fill disjoint slots
  /// through set_edge(). Slots must all be written before use.
  void resize_edges(EdgeId m) {
    u_.resize(static_cast<std::size_t>(m));
    v_.resize(static_cast<std::size_t>(m));
    w_.resize(static_cast<std::size_t>(m));
  }

  void set_edge(EdgeId e, Vertex u, Vertex v, Weight w) {
    PARLAP_DCHECK(e >= 0 && e < num_edges());
    PARLAP_DCHECK(u != v);
    const auto i = static_cast<std::size_t>(e);
    u_[i] = u;
    v_[i] = v;
    w_[i] = w;
  }

  [[nodiscard]] Vertex edge_u(EdgeId e) const {
    return u_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] Vertex edge_v(EdgeId e) const {
    return v_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] Weight edge_weight(EdgeId e) const {
    return w_[static_cast<std::size_t>(e)];
  }

  [[nodiscard]] std::span<const Vertex> us() const noexcept { return u_; }
  [[nodiscard]] std::span<const Vertex> vs() const noexcept { return v_; }
  [[nodiscard]] std::span<const Weight> ws() const noexcept { return w_; }

  [[nodiscard]] MultigraphView view() const noexcept {
    return MultigraphView(n_, u_, v_, w_);
  }

  /// Weighted degree w(u) = sum of incident multi-edge weights (parallel).
  [[nodiscard]] std::vector<Weight> weighted_degrees() const;

  /// Sum of all multi-edge weights (parallel reduction).
  [[nodiscard]] Weight total_weight() const;

  /// Throws unless all endpoints are in range, weights positive and finite,
  /// and no self-loops are present. Intended for API boundaries.
  void validate() const;

 private:
  Vertex n_ = 0;
  std::vector<Vertex> u_;
  std::vector<Vertex> v_;
  std::vector<Weight> w_;
};

inline MultigraphView::MultigraphView(const Multigraph& g)
    : MultigraphView(g.num_vertices(), g.us(), g.vs(), g.ws()) {}

/// Weighted degrees of a view (parallel, bit-identical for every thread
/// count).
[[nodiscard]] std::vector<Weight> weighted_degrees(MultigraphView g);

}  // namespace parlap
