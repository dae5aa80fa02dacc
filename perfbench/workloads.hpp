// The benchmark's three workloads and the layer probes of its traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/build_stats.hpp"
#include "graph/multigraph.hpp"
#include "service/job_file.hpp"

namespace perfbench {

/// Every solve in the benchmark asks for this relative residual.
inline constexpr double kEps = 1e-8;
/// Generator and factorization seed of every graph except the serve
/// workload's cold misses. Fixed, so --seed changes the right-hand sides
/// and request order but not the amount of factorization work.
inline constexpr std::uint64_t kGraphSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;            ///< OpenMP threads / serve workers and connections
  std::string serve_binary;   ///< parlap_serve executable
  std::string run_dir;        ///< scratch directory for the daemon socket
  std::string trace_file;     ///< where the traced run writes its spans
};

/// A graph as a job names it: generator spec plus optional weight model.
struct GraphSpec {
  std::string spec;
  std::string weights;
};

/// Generates `g` exactly as SolveEngine loads a job with seed `seed`.
parlap::Multigraph load_graph(const GraphSpec& g,
                              std::uint64_t seed = kGraphSeed);

/// Seed of the i-th right-hand side of a run.
std::uint64_t rhs_seed(std::uint64_t run_seed, std::uint64_t i);

/// A "random"-RHS job on `g` at eps kEps; the RHS stream is keyed by
/// (seed, id). project_rhs is set because rmat graphs have isolated
/// vertices.
parlap::service::SolveJob make_job(const GraphSpec& g, std::uint64_t seed,
                                   std::string id);

/// Lays a factorization's build phases out as children of `parent`.
void add_build_spans(Tracer& tr, int parent, double start,
                     const parlap::BuildStats& bs);

/// `parlap_cli solve`: fresh factorization and one solve per graph.
void run_oneshot(const Options& o, Record& r, Tracer& tr);
/// `parlap_cli batch`: factor once, then timed warm batches of many RHS.
void run_many_rhs(const Options& o, Record& r, Tracer& tr);
/// `parlap_serve`: closed-loop client against a spawned daemon.
void run_serve(const Options& o, Record& r, Tracer& tr);

/// Traced run only: times each layer's public calls on the workload's
/// distinct graphs and records the per-layer metrics.
void probe_layers(const Options& o, const std::vector<GraphSpec>& graphs,
                  Record& r, Tracer& tr);

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

}  // namespace perfbench
