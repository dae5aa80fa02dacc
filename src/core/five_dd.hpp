// 5DDSubset (Algorithm 3, Lemma 3.4, from [LPS15; KLPSS16]).
//
// A subset F is 5-DD when L_FF is 5-diagonally dominant, equivalently when
// every i in F has induced degree within F at most deg(i)/5. The routine
// repeatedly samples a uniform candidate subset of |cands|/20 vertices and
// keeps those whose sampled induced degree stays under the threshold; each
// round succeeds (|F| >= |cands|/40) with probability >= 1/2, so the
// expected work is O(m) and the expected round count O(1).
//
// Implementation: every round runs on a LevelGraph (level_graph.hpp).
// One read-only sweep of its edge array sorts the edges incident to the
// sample S into S rows, and each S row sums its degree and its induced
// degree itself: in rank order, as one partial sum per fixed chunk of
// the live-edge range, the partials added in chunk order. The chunk
// layout depends only on n, m and |S|, never on the thread count, so the
// test sees the same floating-point sums on every machine, and they are
// the sums a chunked scan over the whole edge list computes. The accepted
// F is a subset of the last S, so its rows stay in the level graph for
// the walk graph and the walks.
//
// The `candidates` overload implements the induced-subgraph call of
// ApproxSchur (Algorithm 6): degrees are measured inside G[candidates],
// which only strengthens the 5-DD property w.r.t. the full graph.
//
// The MultigraphView overloads wrap the level-graph one: they copy the
// graph into a fresh LevelGraph and run the same rounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/level_graph.hpp"
#include "graph/multigraph.hpp"

namespace parlap {

struct FiveDdOptions {
  /// |F'| = max(1, floor(sample_fraction * |candidates|)).
  double sample_fraction = 1.0 / 20;
  /// Round accepted when |F| >= max(1, floor(accept_fraction * |cands|)).
  double accept_fraction = 1.0 / 40;
  /// Hard cap on resampling rounds (Lemma 3.4 gives expected 2).
  int max_rounds = 256;
  /// Optional extension (0 = faithful to the paper): after acceptance, try
  /// to grow F by re-filtering (F union a fresh sample) as a whole;
  /// filter(S) is 5-DD for any S, so correctness is unconditional. Larger
  /// F means fewer elimination levels (ablated in bench E4).
  int boost_rounds = 0;
};

struct FiveDdResult {
  std::vector<Vertex> f;  ///< the 5-DD subset, ascending vertex ids
  int rounds = 0;         ///< sampling rounds used (excluding boosts)
  /// Edge-array slots the rounds' sweeps read (tombstones included).
  EdgeId edges_scanned = 0;
  /// Wall time of the S-row degree sums (the build's `degrees` phase).
  double degree_seconds = 0.0;
};

/// Which degree the 1/5 test divides by.
enum class FiveDdDegree {
  kFull,             ///< weighted degree in G (the chain build)
  kWithinCandidates  ///< weighted degree within G[candidates] (ApproxSchur)
};

/// Reusable scratch for repeated five_dd_subset calls (one elimination
/// level each). All buffers grow to their high-water mark and are never
/// shrunk; `candidate` entries are 0 between calls.
struct FiveDdScratch {
  std::vector<Vertex> staging;   ///< Fisher-Yates copy of the candidates
  std::vector<Vertex> sample;    ///< the round's S, ascending
  std::vector<double> degree;    ///< per S row: the 1/5 test's degree
  std::vector<double> induced;   ///< per S row: degree within G[S]
  std::vector<std::uint8_t> candidate;  ///< kWithinCandidates membership
};

/// 5DDSubset on a level graph: samples among `candidates` (live ids,
/// e.g. g.live()). On return g holds the rows of the last sampled S,
/// which contains the result, with the result select()ed, and
/// scratch.degree[g.sample_position(v)] is v's test degree.
[[nodiscard]] FiveDdResult five_dd_subset(LevelGraph& g,
                                          std::span<const Vertex> candidates,
                                          FiveDdDegree degree,
                                          std::uint64_t seed,
                                          const FiveDdOptions& opts,
                                          FiveDdScratch& scratch);

/// Finds a 5-DD subset among all vertices of `g`.
[[nodiscard]] FiveDdResult five_dd_subset(MultigraphView g,
                                          std::uint64_t seed,
                                          const FiveDdOptions& opts = {});

/// Finds a 5-DD subset of the induced subgraph G[candidates]; degrees in
/// the 1/5 test are taken within G[candidates].
[[nodiscard]] FiveDdResult five_dd_subset(MultigraphView g,
                                          std::span<const Vertex> candidates,
                                          std::uint64_t seed,
                                          const FiveDdOptions& opts = {});

/// Verification helper (serial, O(m)): true iff every i in F has weighted
/// degree within G[F] at most deg_within_candidates(i)/5 (candidates = all
/// vertices when empty).
[[nodiscard]] bool is_five_dd(MultigraphView g, std::span<const Vertex> f,
                              std::span<const Vertex> candidates = {});

}  // namespace parlap
