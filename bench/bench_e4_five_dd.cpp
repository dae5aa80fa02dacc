// E4 — Lemma 3.4: 5DDSubset returns |F| >= n/40 in O(m) expected work and
// O(1) expected rounds. We measure accepted fraction, rounds, and
// time-per-edge across families and seeds, and ablate the boost_rounds
// extension (larger F => shallower chains) against the faithful default.
#include "common.hpp"
#include "core/block_cholesky.hpp"
#include "core/five_dd.hpp"

using namespace parlap;
using namespace parlap::bench;

int main() {
  reporter().set_experiment("E4");
  {
    TextTable table("E4 5DDSubset — 20 seeds per family (paper constants)");
    table.set_header({"family", "n", "m", "mean_frac", "min_frac",
                      "mean_rounds", "max_rounds", "ns_per_edge"},
                     4);
    for (const auto& [family, size] :
         sweep<std::pair<std::string, Vertex>>({{"grid2d", 150},
                                                {"regular4", 30000},
                                                {"gnm4", 20000},
                                                {"rmat", 13},
                                                {"barbell", 500}},
                                               2)) {
      const Multigraph g = make_family(family, size, 3);
      OnlineStats frac;
      OnlineStats rounds;
      WallTimer timer;
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const FiveDdResult r = five_dd_subset(g, seed);
        frac.add(static_cast<double>(r.f.size()) /
                 static_cast<double>(g.num_vertices()));
        rounds.add(r.rounds);
      }
      const double seconds = timer.seconds();
      const double ns_per_edge =
          seconds * 1e9 / (20.0 * static_cast<double>(g.num_edges()));
      table.add_row({family, static_cast<std::int64_t>(g.num_vertices()),
                     static_cast<std::int64_t>(g.num_edges()), frac.mean(),
                     frac.min(), rounds.mean(),
                     static_cast<std::int64_t>(rounds.max()), ns_per_edge});
      reporter().record_time(
          family + "/n=" + std::to_string(g.num_vertices()),
          {{"n", static_cast<double>(g.num_vertices())},
           {"m", static_cast<double>(g.num_edges())},
           {"mean_frac", frac.mean()},
           {"min_frac", frac.min()},
           {"ns_per_edge", ns_per_edge}},
          seconds);
    }
    print_table(table);
    std::cout << "claim check: min_frac >= 1/40 = 0.025 and rounds O(1).\n\n";
  }

  {
    TextTable table(
        "E4b boost ablation — grid2d 128x128: F fraction vs chain depth");
    table.set_header({"boost_rounds", "mean_F_frac", "chain_depth",
                      "factor_s"},
                     4);
    const Multigraph g = make_family("grid2d", smoke() ? 64 : 128, 3);
    for (const int boost : sweep<int>({0, 1, 2, 4}, 2)) {
      BlockCholeskyOptions opts;
      opts.five_dd.boost_rounds = boost;
      WallTimer timer;
      const BlockCholeskyChain chain = BlockCholeskyChain::build(g, 7, opts);
      const double factor_s = timer.seconds();
      OnlineStats frac;
      for (const LevelStats& ls : chain.level_stats()) {
        frac.add(static_cast<double>(ls.f_size) / static_cast<double>(ls.n));
      }
      table.add_row({static_cast<std::int64_t>(boost), frac.mean(),
                     static_cast<std::int64_t>(chain.depth()), factor_s});
      reporter().record_time(
          "boost_ablation/boost=" + std::to_string(boost),
          {{"mean_f_frac", frac.mean()},
           {"chain_depth", static_cast<double>(chain.depth())}},
          factor_s);
    }
    print_table(table);
    std::cout << "shape: boosting grows F per level and shrinks depth; the "
                 "paper's constants are boost=0.\n";
  }
  return 0;
}
