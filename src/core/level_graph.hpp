// LevelGraph — the one in-place edge array an elimination loop rewrites
// (Algorithm 1's G^(0), G^(1), ... and ApproxSchur's G_0, G_1, ...).
//
// Algorithm 1 changes only the multi-edges incident to F_k: the
// terminal-walk sample replaces exactly those, and every C-C edge passes
// through untouched. So the level graphs share one struct-of-arrays edge
// array in level-0 vertex ids, and a level rewrites only the slots of the
// edges it walks: each receives its sampled edge, or a tombstone (both
// endpoints n0, an id no vertex has) when its walk closed on one terminal.
// Nothing is renumbered, and edges move only when the array is compacted.
//
// A slot is an edge's identity within a level: it stays put until the
// array is compacted, and a tombstone moves no other edge. So the walks
// key their randomness by slot (terminal_walks.hpp), and dropping one
// edge leaves every other edge's random stream as it was. Rows list
// their entries in slot order, so per-row sums (degrees, the 5-DD test)
// add in edge-array order. The live vertices form an ascending list, and
// a live vertex's rank in it is its level-local id (the walk graph's and
// the extracted level's).
//
// The only whole-array pass of a level is scan(): per 5-DD round, one
// read-only sweep copies the edges incident to the sample S, with their
// slots, into per-block buffers, and sorts them into S rows (one per
// member of S, entries in slot order). Degrees, the 5-DD test, the walk
// graph's F rows and the walks themselves all derive from those
// O(vol S) rows. The sweep reads two ids and one flag byte per endpoint;
// the sentinel's flag is never set, so tombstones need no test. It sets
// a bit per hit in a mask of 64 slots without branching, then copies the
// hits lowest bit first, so only the copies branch. When tombstones
// outnumber live edges the array is compacted, in order, so compaction
// costs O(1) amortized per dropped edge. Other per-level work is
// O(n_k + vol S_k): only the flag, position and rank entries a level set
// are touched again.
//
// Buffers are plain vectors, resized (never shrunk) per call; a
// LevelGraph kept alive across builds (ChainBuildArena owns one) reaches
// zero steady-state reallocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/multigraph.hpp"
#include "support/types.hpp"

namespace parlap {

/// One edge incident to a row's vertex, as scan() copied it.
struct RowEntry {
  EdgeId slot;   ///< position in the edge array
  Vertex other;  ///< the endpoint that is not the row's vertex
  Vertex from_u; ///< 1 when the row's vertex is the edge's u endpoint
  Weight w;
};

class LevelGraph {
 public:
  /// Starts from a copy of g's edges (capacity reused).
  void assign(MultigraphView g);
  /// Starts from g's own edge arrays, swapped in without copying. The
  /// graph holds this level graph's previous arrays until give_back(g)
  /// swaps them back.
  void adopt(Multigraph& g);
  void give_back(Multigraph& g);

  /// n_k and m_k: live vertices and live edges.
  [[nodiscard]] Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(live_.size());
  }
  [[nodiscard]] EdgeId num_edges() const noexcept { return live_edges_; }
  /// n0: vertex ids lie in [0, n0); n0 itself marks a tombstone.
  [[nodiscard]] Vertex id_bound() const noexcept { return n0_; }
  /// The live vertices (level-0 ids), ascending.
  [[nodiscard]] std::span<const Vertex> live() const noexcept {
    return live_;
  }
  /// A live vertex's level-local id: its index in live().
  [[nodiscard]] Vertex rank(Vertex v) const noexcept {
    return rank_[static_cast<std::size_t>(v)];
  }

  /// Makes `s` (live level-0 ids, any order) the sample and sorts the
  /// edges incident to it into rows: row(i) lists s[i]'s edges in slot
  /// order. One read-only sweep of the edge array; returns the slots it
  /// read, tombstones included.
  EdgeId scan(std::span<const Vertex> s);
  [[nodiscard]] bool in_sample(Vertex v) const noexcept {
    return flag_[static_cast<std::size_t>(v)] != 0;
  }
  /// A sample member's index in the scanned list (and of its row).
  [[nodiscard]] Vertex sample_position(Vertex v) const noexcept {
    return pos_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::span<const RowEntry> row(std::size_t i) const noexcept {
    return {rows_.data() + row_off_[i],
            static_cast<std::size_t>(row_off_[i + 1] - row_off_[i])};
  }
  /// The rows' offsets (|S| + 1 entries; the last is the rows' volume).
  [[nodiscard]] std::span<const EdgeId> row_offsets() const noexcept {
    return row_off_;
  }

  /// Marks the eliminated set F, a subset of the sample.
  void select(std::span<const Vertex> f);
  [[nodiscard]] bool selected(Vertex v) const noexcept {
    return (flag_[static_cast<std::size_t>(v)] & kSelected) != 0;
  }

  /// The walks' in-place writes: slot receives a sampled edge (level-0
  /// ids) or a tombstone.
  void set_edge(EdgeId slot, Vertex u, Vertex v, Weight w) noexcept {
    const auto i = static_cast<std::size_t>(slot);
    u_[i] = u;
    v_[i] = v;
    w_[i] = w;
  }
  void drop_edge(EdgeId slot) noexcept { set_edge(slot, n0_, n0_, 0.0); }

  /// Ends a level: the selected vertices leave the live list, the
  /// survivors take their new ranks, `dropped` walked edges are now
  /// tombstones, and the array is compacted (in order) once tombstones
  /// outnumber live edges.
  void eliminate(EdgeId dropped);

  /// Ends the elimination: compacts the live edges to the front,
  /// renumbered to level-local ids, and views them as an n_k-vertex graph
  /// (valid until the next assign/adopt).
  [[nodiscard]] MultigraphView renumbered();

  /// Calls fn(bytes) with the capacity of every owned buffer, in a fixed
  /// order (arena telemetry).
  template <typename Fn>
  void for_each_capacity(Fn&& fn) const {
    const auto vec = [&fn](const auto& v) {
      fn(v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
    };
    vec(u_);
    vec(v_);
    vec(w_);
    vec(live_);
    vec(rank_);
    vec(flag_);
    vec(pos_);
    vec(sample_);
    vec(blocks_);
    std::size_t records = 0;
    for (const Block& b : blocks_) {
      records += b.rec.capacity() * sizeof(Record);
    }
    fn(records);
    vec(row_off_);
    vec(rows_);
    vec(row_hist_);
  }

 private:
  static constexpr std::uint8_t kSampled = 1;
  static constexpr std::uint8_t kSelected = 2;

  struct Record {
    EdgeId slot;
    Vertex u;
    Vertex v;
    Weight w;
  };
  struct Block {
    std::vector<Record> rec;  ///< size = capacity; the first `used` are valid
    std::size_t used = 0;     ///< records found (beyond rec.size(): overflow)
  };

  /// The sweep over slots [lo, hi): copies the records of the edges with
  /// a flagged endpoint into blk, in slot order.
  static void sweep_block(const Vertex* us, const Vertex* vs,
                          const Weight* ws, const std::uint8_t* flag,
                          EdgeId lo, EdgeId hi, Block& blk);
  void reset_ids(Vertex n0);
  void clear_marks() noexcept;
  void compact(bool renumber);

  Vertex n0_ = 0;
  EdgeId live_edges_ = 0;
  EdgeId tombstones_ = 0;
  std::vector<Vertex> u_;
  std::vector<Vertex> v_;
  std::vector<Weight> w_;
  std::vector<Vertex> live_;
  std::vector<Vertex> rank_;         ///< level-0 id -> rank (live vertices)
  std::vector<std::uint8_t> flag_;   ///< n0 + 1 entries; the sentinel's stays 0
  std::vector<Vertex> pos_;          ///< level-0 id -> sample position
  std::vector<Vertex> sample_;
  std::vector<Block> blocks_;
  std::vector<EdgeId> row_off_;
  std::vector<RowEntry> rows_;
  std::vector<EdgeId> row_hist_;     ///< blocks x |S| counts, then bases
};

}  // namespace parlap
