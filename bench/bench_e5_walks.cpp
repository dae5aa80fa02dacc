// E5 — Lemma 5.4: on 5-DD complements, walk lengths are O(1) in
// expectation and O(log m) at the maximum, and TerminalWalks never emits
// more multi-edges than it consumes. We histogram first-level walk
// lengths, track the mean across graph sizes (constancy), and check the
// edge-count invariant across every level of a full chain.
#include "common.hpp"
#include "core/block_cholesky.hpp"
#include "core/five_dd.hpp"
#include "core/terminal_walks.hpp"

using namespace parlap;
using namespace parlap::bench;

namespace {

WalkStats first_level_stats(const Multigraph& g, std::uint64_t seed) {
  const FiveDdResult fdd = five_dd_subset(g, seed);
  const Vertex n = g.num_vertices();
  std::vector<Vertex> f_index(static_cast<std::size_t>(n), kInvalidVertex);
  for (std::size_t i = 0; i < fdd.f.size(); ++i) {
    f_index[static_cast<std::size_t>(fdd.f[i])] = static_cast<Vertex>(i);
  }
  std::vector<Vertex> c_index(static_cast<std::size_t>(n), kInvalidVertex);
  Vertex nc = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (f_index[static_cast<std::size_t>(v)] == kInvalidVertex) {
      c_index[static_cast<std::size_t>(v)] = nc++;
    }
  }
  const WalkGraph wg =
      build_walk_graph(g, f_index, static_cast<Vertex>(fdd.f.size()));
  WalkStats stats;
  (void)terminal_walks(g, wg, f_index, c_index, nc, seed, 0, &stats);
  return stats;
}

}  // namespace

int main() {
  reporter().set_experiment("E5");
  {
    TextTable table("E5 walk lengths at level 0 (mean per walk, max, "
                    "retries) vs graph size");
    table.set_header({"family", "n", "m", "mean_len", "max_len",
                      "log2(m)", "retries", "drop_frac"},
                     4);
    for (const auto& [family, size] :
         sweep<std::pair<std::string, Vertex>>(
             {{"grid2d", 64}, {"grid2d", 128}, {"grid2d", 256},
              {"regular4", 10000}, {"regular4", 80000}, {"rmat", 12},
              {"rmat", 15}, {"wgrid2d", 128}},
             2)) {
      const Multigraph g = make_family(family, size, 3);
      WallTimer timer;
      const WalkStats s = first_level_stats(g, 5);
      const double seconds = timer.seconds();
      reporter().record_time(
          family + "/n=" + std::to_string(g.num_vertices()),
          {{"n", static_cast<double>(g.num_vertices())},
           {"m", static_cast<double>(s.edges_in)},
           {"mean_len", static_cast<double>(s.total_steps) /
                            (2.0 * static_cast<double>(s.edges_in))},
           {"max_len", static_cast<double>(s.max_walk_len)}},
          seconds);
      table.add_row(
          {family, static_cast<std::int64_t>(g.num_vertices()),
           static_cast<std::int64_t>(s.edges_in),
           static_cast<double>(s.total_steps) /
               (2.0 * static_cast<double>(s.edges_in)),
           static_cast<std::int64_t>(s.max_walk_len),
           std::log2(static_cast<double>(s.edges_in)),
           static_cast<std::int64_t>(s.retries),
           static_cast<double>(s.dropped_loops) /
               static_cast<double>(s.edges_in)});
    }
    print_table(table);
    std::cout << "claim check: mean_len stays O(1) as m grows; max_len "
                 "<= O(log m); retries = 0.\n\n";
  }

  {
    // Edge-count invariant over a whole chain (Thm 3.9-(1)).
    const Multigraph g =
        make_family("regular4", smoke() ? Vertex{8000} : Vertex{50000}, 7);
    WallTimer timer;
    const BlockCholeskyChain chain = BlockCholeskyChain::build(g, 9);
    const double factor_s = timer.seconds();
    EdgeId m0 = 0;
    EdgeId worst = 0;
    OnlineStats mean_len;
    int max_len = 0;
    for (const LevelStats& ls : chain.level_stats()) {
      if (m0 == 0) m0 = ls.multi_edges;
      worst = std::max(worst, ls.multi_edges);
      if (ls.walks.edges_in > 0) {
        mean_len.add(static_cast<double>(ls.walks.total_steps) /
                     (2.0 * static_cast<double>(ls.walks.edges_in)));
      }
      max_len = std::max(max_len, ls.walks.max_walk_len);
    }
    reporter().record_time(
        "chain_invariant/n=" + std::to_string(g.num_vertices()),
        {{"n", static_cast<double>(g.num_vertices())},
         {"levels", static_cast<double>(chain.depth())},
         {"max_mk_over_m0",
          static_cast<double>(worst) / static_cast<double>(m0)},
         {"max_len", static_cast<double>(max_len)}},
        factor_s);
    TextTable table("E5b chain-wide invariants — regular4 n=" +
                    std::to_string(g.num_vertices()));
    table.set_header({"levels", "m_level0", "max_m_k", "max_mk_over_m0",
                      "mean_len_all_levels", "max_len_all_levels"},
                     4);
    table.add_row({static_cast<std::int64_t>(chain.depth()),
                   static_cast<std::int64_t>(m0),
                   static_cast<std::int64_t>(worst),
                   static_cast<double>(worst) / static_cast<double>(m0),
                   mean_len.mean(), static_cast<std::int64_t>(max_len)});
    print_table(table);
    std::cout << "claim check: max_mk_over_m0 <= 1 (Lemma 5.4: the count "
                 "never grows).\n";
  }
  return 0;
}
