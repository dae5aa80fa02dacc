// C-terminal random walks for Schur complement approximation
// (Algorithm 4, §3.4, §5).
//
// For every multi-edge e = (u, v), two independent weighted random walks
// run from u and from v until they first hit the terminal set C. If the
// terminals differ, one multi-edge between them is emitted with weight
// 1 / sum_{f in W(e)} 1/w(f) — the harmonic composition along the spliced
// walk. The output multigraph H satisfies:
//   * E[L_H] = SC(L_G, C)                      (Lemma 5.1, unbiased)
//   * every emitted edge is alpha-bounded      (Lemma 5.2, via the
//     effective-resistance triangle inequality)
//   * |E(H)| <= |E(G)|                         (Lemma 5.4)
// and when F = V\C is 5-DD each step escapes to C with probability >= 4/5,
// so walks have O(1) expected and O(log m) maximum length w.h.p.
//
// Walks only ever step while inside F, so the adjacency structure and the
// per-vertex alias tables (Lemma 2.6 sampling) are built for F rows only —
// O(vol(F)) space instead of O(m) — straight from the level graph's F
// rows (level_graph.hpp), with steps in level-local ids.
//
// Only F-incident edges walk: an edge with both endpoints in C is its own
// walk and stays where it is. Each walked edge owns a counter-based RNG
// stream keyed by (seed, level, rank among live edges) and writes its
// sampled edge, or a tombstone, into its own slot of the level graph's
// edge array, so the result is identical under any thread count and equal
// to sampling every edge of a compacted copy of G^(k). An F-F edge sits in
// two F rows and walks once, from the row of its u endpoint.
//
// The MultigraphView entry points (build_walk_graph, terminal_walks) wrap
// the level-graph ones for whole-graph callers: they copy the graph into
// a fresh LevelGraph, run the same code, and return owning results.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/level_graph.hpp"
#include "graph/multigraph.hpp"

namespace parlap {

struct WalkOptions {
  /// Maximum steps per walk before the walk is retried with fresh
  /// randomness. 0 = auto (32 + 16 ceil(log2 m)). With escape probability
  /// >= 4/5 a cap this size is hit with probability ~5^-cap.
  int max_walk_steps = 0;
  /// Hard failure after this many retries of one walk (indicates the
  /// F = V\C set is not almost-independent, i.e. misuse).
  int max_retries = 64;
};

struct WalkStats {
  EdgeId edges_in = 0;
  EdgeId edges_out = 0;
  EdgeId walked = 0;             ///< F-incident edges whose walks ran
  EdgeId dropped_loops = 0;      ///< walks that closed on one terminal
  std::int64_t total_steps = 0;  ///< sum of |W1| + |W2| over all edges
  int max_walk_len = 0;          ///< longest single walk (steps)
  std::int64_t retries = 0;

  void accumulate(const WalkStats& other) {
    edges_in += other.edges_in;
    edges_out += other.edges_out;
    walked += other.walked;
    dropped_loops += other.dropped_loops;
    total_steps += other.total_steps;
    max_walk_len = max_walk_len > other.max_walk_len ? max_walk_len
                                                     : other.max_walk_len;
    retries += other.retries;
  }
};

/// Adjacency of the F = V\C rows only (complete incident edge lists),
/// with a Walker alias table per row for O(1) weighted steps.
struct WalkGraph {
  std::vector<EdgeId> off;          ///< size nf+1, rows by F-position
  std::vector<Vertex> nbr;          ///< step targets (level-local ids)
  std::vector<Weight> w;            ///< step edge weights
  std::vector<double> prob;         ///< alias structure, aligned with nbr
  std::vector<std::int32_t> alias;

  [[nodiscard]] Vertex rows() const noexcept {
    return static_cast<Vertex>(off.empty() ? 0 : off.size() - 1);
  }
  [[nodiscard]] EdgeId volume() const noexcept {
    return off.empty() ? 0 : off.back();
  }
};

/// Builds the walk graph's rows from g's sample rows: row i holds the
/// edges of f[i] (a select()ed sample member) in rank order, stepping to
/// level-local ids, plus its alias table. Reuses `out`'s storage.
/// O(vol(F)) work, deterministic.
void build_walk_graph(const LevelGraph& g, std::span<const Vertex> f,
                      WalkGraph& out);

/// Runs Algorithm 4 (the terminal-walk Schur sample) in place on g: every
/// edge incident to f (select()ed) walks both ends into C and its slot
/// receives the sampled edge (level-0 ids) or a tombstone. `f_index[x]`
/// gives level-local vertex x's row in `walk_graph` or kInvalidVertex for
/// terminals. Call g.eliminate(stats.edges_in - stats.edges_out) after.
[[nodiscard]] WalkStats sample_schur_complement(
    LevelGraph& g, const WalkGraph& walk_graph, std::span<const Vertex> f,
    std::span<const Vertex> f_index, std::uint64_t seed, std::uint64_t level,
    const WalkOptions& opts);

/// Whole-graph convenience: the F-row adjacency + alias tables of g for
/// the F given by `f_index[v]` (v's F-position or kInvalidVertex; `nf`
/// counts F vertices). Rows step to g's vertex ids.
[[nodiscard]] WalkGraph build_walk_graph(MultigraphView g,
                                         std::span<const Vertex> f_index,
                                         Vertex nf);

/// Whole-graph convenience: the sampled approximation of SC(L, C) as an
/// owning Multigraph on [0, num_c). `c_index[v]` gives v's output id for
/// terminals and kInvalidVertex inside F; exactly one of f_index/c_index
/// must be valid per vertex, and `walk_graph` must be build_walk_graph(g,
/// f_index, nf).
[[nodiscard]] Multigraph terminal_walks(MultigraphView g,
                                        const WalkGraph& walk_graph,
                                        std::span<const Vertex> f_index,
                                        std::span<const Vertex> c_index,
                                        Vertex num_c, std::uint64_t seed,
                                        std::uint64_t level,
                                        WalkStats* stats = nullptr,
                                        const WalkOptions& opts = {});

}  // namespace parlap
