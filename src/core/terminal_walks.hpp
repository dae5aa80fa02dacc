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
// stream keyed by (seed, level, slot), its position in the level graph's
// edge array, and writes its sampled edge, or a tombstone, into that
// slot, so the result is identical under any thread count, and a
// tombstone elsewhere in the array leaves the stream as it was. An F-F
// edge sits in two F rows and walks once, from the row of its u
// endpoint.
//
// Every sample keeps the level's connectivity. Group F into components
// K joined by F-F edges, and let N_C(K) be K's distinct C neighbours.
// Every walk that starts in K ends in N_C(K), and H differs from G^(k-1)
// only on F-incident edges, so if the edges sampled from K's walked
// entries connect N_C(K), every path of G^(k-1) through K survives in H
// between the same terminals. The guard checks exactly that, in O(vol K)
// per component: the walks record each entry's two terminals in a dense
// array (WalkScratch), and one pass, split by volume, runs a small
// union-find per component. A component that fails redraws all its
// walked entries with attempt a = 1, 2, ... folded into the walk key,
// ((level << 40) ^ slot) ^ (a << 56), until N_C(K) is connected or 32
// redraws have run (then the last draw stays, and the solver's
// escalation remains the last resort). Levels lie below 2^16 and slots
// below 2^40, so no redraw key equals a first-draw key.
//
// This is rejection sampling of each component's star on the event
// "connects N_C(K)". A component that connects on its first draw keeps
// that draw, bit for bit, so a level in which no component fails is
// sampled exactly as without the guard. One that fails is conditioned on
// the event: a bias, but a split sample would leave W singular, and no
// outer loop converges on that.
//
// All three passes split by volume, not by F row (parallel/for_each.hpp's
// fork rule): the walks and the guard go out in fixed blocks of F-row
// entries, so a level whose few F vertices carry thousands of edges
// spreads over the team, and the walk graph's rows run in chunks of equal
// volume.
//
// A block of walks runs in two passes. The first, one branch-free loop
// over the block's entries (Rng::first_draws), derives each entry's
// stream and its first Philox block: the two draws of one step. The
// second takes each entry's first step from them. That step belongs to
// the row vertex's walk, which is the stream's first consumer: a C end
// takes no step, and an F-F edge walks from its u endpoint's row. A step
// onto a terminal from an F-C edge ends the draw there; otherwise both
// walks go on from block 1 of the same stream, with the caps and retries
// of a draw made one edge at a time. Each walk thus consumes the same
// key, the same blocks and the same draws in the same order as that
// draw, so the sample is the same bit for bit. Where next_below would
// test for rejection (low word < degree, odds deg / 2^64), the entry
// falls back to the one-edge draw. Redraws run the same two passes, with
// their attempt in the key.
//
// The MultigraphView entry points (build_walk_graph, terminal_walks) wrap
// the level-graph ones for whole-graph callers: they copy the graph into
// a fresh LevelGraph, run the same code, and return owning results.
#pragma once

#include <array>
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
  /// Hard failure after this many attempts of one walk, at least 1
  /// (running out indicates the F = V\C set is not almost-independent,
  /// i.e. misuse).
  int max_retries = 64;
};

struct WalkStats {
  EdgeId edges_in = 0;
  EdgeId edges_out = 0;
  EdgeId walked = 0;             ///< F-incident edges whose walks ran
  EdgeId dropped_loops = 0;      ///< kept draws that closed on one terminal
  /// Sum of |W1| + |W2| over every walk run, redraws included.
  std::int64_t total_steps = 0;
  int max_walk_len = 0;          ///< longest single walk (steps)
  std::int64_t retries = 0;      ///< walks restarted at the step cap
  /// F-component redraws: one per component per extra draw of its walked
  /// entries, when the previous draw left N_C(K) disconnected.
  std::int64_t resampled = 0;

  void accumulate(const WalkStats& other) {
    edges_in += other.edges_in;
    edges_out += other.edges_out;
    walked += other.walked;
    dropped_loops += other.dropped_loops;
    total_steps += other.total_steps;
    max_walk_len = max_walk_len > other.max_walk_len ? max_walk_len
                                                     : other.max_walk_len;
    retries += other.retries;
    resampled += other.resampled;
  }
};

/// The connectivity guard's scratch, resized (never shrunk) per level; a
/// caller that keeps it across levels and builds (ChainBuildArena owns
/// one) reaches zero steady-state reallocations.
struct WalkScratch {
  /// The two terminals (level-local ids) a walked entry's kept draw
  /// reached, aligned with the walk graph's entries; kInvalidVertex on
  /// the second row of an F-F edge, which does not walk.
  std::vector<std::array<Vertex, 2>> ends;
  /// F row -> union-find parent while the walks join F-F edges, then the
  /// row's component.
  std::vector<Vertex> comp;
  std::vector<Vertex> comp_off;   ///< components' ranges in comp_rows
  std::vector<Vertex> comp_rows;  ///< F rows grouped by component
  std::vector<EdgeId> comp_vol;   ///< components' walk-graph volume, scanned
  /// A terminal's union-find entry: valid only under the current stamp.
  struct Set {
    std::uint32_t stamp = 0;
    Vertex parent = 0;
  };
  /// Per thread of the guard's team, n_k entries each.
  std::vector<Set> sets;
  std::vector<std::uint8_t> failed;  ///< per component: its first draw failed
  std::vector<Vertex> redo;          ///< the components still redrawing
  std::vector<Vertex> redo_rows;     ///< their rows, and the rows' volumes
  std::vector<EdgeId> redo_off;      ///< scanned
  /// The last stamp handed out: stale entries from earlier levels and
  /// builds never match a new one.
  std::uint64_t epoch = 0;
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
/// edges of f[i] (a select()ed sample member) in slot order, stepping to
/// level-local ids, plus its alias table. Reuses `out`'s storage.
/// O(vol(F)) work, deterministic.
void build_walk_graph(const LevelGraph& g, std::span<const Vertex> f,
                      WalkGraph& out);

/// Runs Algorithm 4 (the terminal-walk Schur sample) in place on g: every
/// edge incident to f (select()ed) walks both ends into C and its slot
/// receives the sampled edge (level-0 ids) or a tombstone; then the
/// connectivity guard redraws every F component whose sample leaves its
/// C neighbours disconnected. `f_index[x]` gives level-local vertex x's
/// row in `walk_graph` or kInvalidVertex for terminals. Call
/// g.eliminate(stats.edges_in - stats.edges_out) after.
[[nodiscard]] WalkStats sample_schur_complement(
    LevelGraph& g, const WalkGraph& walk_graph, std::span<const Vertex> f,
    std::span<const Vertex> f_index, std::uint64_t seed, std::uint64_t level,
    const WalkOptions& opts, WalkScratch& scratch);

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
