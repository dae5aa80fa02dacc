// E16 — chain-construction cost: arena-backed build throughput and
// phase breakdown (src/core/build_arena.hpp).
//
// Chain construction is the tail-latency driver of every factorization-
// cache miss (E15's workload), so this experiment measures exactly that
// path: BlockCholeskyChain::build on the E15 graph families, split the
// same way LaplacianSolver's round 0 splits them (SolverOptions'
// default split_scale). Two regimes per graph:
//
//   cold  — every build gets a fresh ChainBuildArena (first-ever build,
//           the allocation-heavy behavior the old copy-per-level pipeline
//           exhibited on every build);
//   warm  — one arena is reused across builds (the steady state of a
//           long-lived service rebuilding on cache misses).
//
// Reported per graph: median cold/warm build seconds, warm speedup,
// build throughput (split multi-edges per second, warm), the steady-state
// arena reallocations summed over the measured warm builds (must be 0 —
// the zero-realloc property), peak arena bytes, the base factorization's
// share of a warm build (base_ms), the thread scaling of a warm build (its
// median at 1 thread over its median at the default thread count), and
// each phase's median over the measured warm builds. The barbell family's
// deep levels eliminate a handful of vertices that carry tens of
// thousands of multi-edges between them, so its scaling shows whether
// those levels' passes fork.
#include <string>
#include <vector>

#include <omp.h>

#include "common.hpp"
#include "core/alpha_bound.hpp"
#include "core/block_cholesky.hpp"
#include "core/build_arena.hpp"
#include "core/solver.hpp"

using namespace parlap;
using namespace parlap::bench;

namespace {

Multigraph make_workload(const std::string& spec, Vertex scale,
                         std::uint64_t seed) {
  if (spec == "ws") return make_watts_strogatz(scale * 8, 6, 0.1, seed);
  if (spec == "grid2d") return make_grid2d(scale, scale);
  if (spec == "barbell") return make_barbell(scale * 3, scale * 3 / 2);
  return make_erdos_renyi(scale * 4, static_cast<EdgeId>(scale) * 16, seed);
}

}  // namespace

int main() {
  reporter().set_experiment("E16");
  const int reps = smoke() ? 3 : 7;
  // Smoke scale keeps every family above the base-case cutoff (100
  // vertices) so at least one elimination level is actually built.
  const Vertex scale = smoke() ? Vertex{32} : Vertex{64};
  const std::uint64_t seed = 17;
  const std::vector<std::string> graphs = {"ws", "grid2d", "gnm", "barbell"};

  bool zero_realloc_violated = false;
  TextTable table("E16 chain build — cold (fresh arena) vs warm (reused "
                  "arena), E15 workload, " +
                  std::to_string(reps) + " reps");
  table.set_header({"graph", "n", "m_split", "cold_ms", "warm_ms", "base_ms",
                    "speedup", "t1_over_tN", "Medges_per_s", "scanned",
                    "walked", "steady_reallocs", "arena_MiB"},
                   4);

  for (const std::string& name : graphs) {
    const Multigraph g = make_workload(name, scale, seed);
    const Multigraph split = split_edges_uniform(
        g, default_split_copies(g.num_vertices(), SolverOptions{}.split_scale));
    const BlockCholeskyOptions opts;

    // Cold: a fresh arena per build — every scratch buffer grows from
    // zero, the first-build cost a cache miss on a never-seen shape pays.
    const std::vector<double> cold = measure(reps, /*warmup=*/1, [&] {
      ChainBuildArena arena;
      (void)BlockCholeskyChain::build(split, seed, opts, arena);
    });

    // Warm: one arena reused across builds (steady-state rebuild). The
    // warmup build sizes every buffer; the measured builds must then
    // report zero arena reallocations.
    ChainBuildArena arena;
    std::vector<BuildStats> builds;
    const std::vector<double> warm = measure(reps, /*warmup=*/1, [&] {
      const BlockCholeskyChain chain =
          BlockCholeskyChain::build(split, seed, opts, arena);
      builds.push_back(chain.build_stats());
    });
    builds.erase(builds.begin());  // the warmup build
    const BuildStats& last = builds.back();
    std::int64_t reallocs = 0;
    for (const BuildStats& b : builds) reallocs += b.arena_allocations;
    // Seconds' median over the measured warm builds.
    const auto median_of = [&](auto&& seconds) {
      std::vector<double> v;
      for (const BuildStats& b : builds) v.push_back(seconds(b));
      return summarize(v).median;
    };
    const auto phase = [&](double BuildPhaseTimes::*p) {
      return median_of([p](const BuildStats& b) { return b.phases.*p; });
    };
    const double base_s =
        median_of([](const BuildStats& b) { return b.base_seconds; });

    // The same warm builds on one thread: their median over the default
    // thread count's is the build's thread scaling.
    const int threads = omp_get_max_threads();
    omp_set_num_threads(1);
    const std::vector<double> warm_t1 = measure(reps, /*warmup=*/1, [&] {
      (void)BlockCholeskyChain::build(split, seed, opts, arena);
    });
    omp_set_num_threads(threads);

    const TimingSummary cold_s = summarize(cold);
    const TimingSummary warm_s = summarize(warm);
    const double scaling =
        warm_s.median > 0.0 ? summarize(warm_t1).median / warm_s.median : 0.0;
    const double medges_per_s =
        warm_s.median > 0.0
            ? static_cast<double>(split.num_edges()) / warm_s.median / 1e6
            : 0.0;
    const double arena_mib =
        static_cast<double>(last.peak_arena_bytes) / (1 << 20);
    table.add_row({name, static_cast<std::int64_t>(g.num_vertices()),
                   static_cast<std::int64_t>(split.num_edges()),
                   cold_s.median * 1e3, warm_s.median * 1e3, base_s * 1e3,
                   warm_s.median > 0.0 ? cold_s.median / warm_s.median : 0.0,
                   scaling, medges_per_s,
                   static_cast<std::int64_t>(last.edges_scanned),
                   static_cast<std::int64_t>(last.walked),
                   reallocs, arena_mib});

    reporter().record(
        BenchCase{"build-warm:" + name,
                  {{"n", static_cast<double>(g.num_vertices())},
                   {"m_split", static_cast<double>(split.num_edges())},
                   {"levels", static_cast<double>(last.levels)},
                   {"split_medges_per_s", medges_per_s},
                   {"warm_t1_over_default", scaling},
                   {"steady_arena_reallocs", static_cast<double>(reallocs)},
                   {"peak_arena_mib", arena_mib},
                   {"edges_scanned", static_cast<double>(last.edges_scanned)},
                   {"walked", static_cast<double>(last.walked)},
                   {"degrees_seconds", phase(&BuildPhaseTimes::degrees)},
                   {"five_dd_seconds", phase(&BuildPhaseTimes::five_dd)},
                   {"partition_seconds", phase(&BuildPhaseTimes::partition)},
                   {"walk_graph_seconds", phase(&BuildPhaseTimes::walk_graph)},
                   {"schur_seconds", phase(&BuildPhaseTimes::schur)},
                   {"extract_seconds", phase(&BuildPhaseTimes::extract)},
                   {"base_seconds", base_s}},
                  warm});
    reporter().record(
        BenchCase{"build-cold:" + name,
                  {{"n", static_cast<double>(g.num_vertices())},
                   {"m_split", static_cast<double>(split.num_edges())}},
                  cold});

    if (reallocs != 0) {
      std::cerr << "E16: WARNING: steady-state builds of '" << name
                << "' performed " << reallocs
                << " arena reallocation(s); expected 0\n";
      zero_realloc_violated = true;
    }
  }
  // Table first, verdict second: a gate failure still shows the full
  // per-graph diagnostics (which family regressed, by how much).
  print_table(table);
  return zero_realloc_violated ? 1 : 0;
}
