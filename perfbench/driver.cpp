// parlap_perfbench — the measuring half of the end-to-end benchmark.
//
//   parlap_perfbench --workload oneshot|many_rhs|serve --seed N
//                    --seconds S --trace 0|1 --serve-binary PATH
//                    --run-dir DIR [--trace-file PATH]
//
// Runs one workload and prints one JSON record (metrics with units and
// sample counts, deterministic work counts, host facts, failures, and in
// the traced run per-layer self times). perfbench/run.py builds this
// binary, adds the host record, and reduces the record to the
// benchmark's result line.
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/graph_source.hpp"
#include "api/rhs.hpp"
#include "api/solver_registry.hpp"
#include "linalg/kernels/kernels.hpp"
#include "service/solve_engine.hpp"
#include "support/precision.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using parlap::Multigraph;
using parlap::Vector;

Multigraph load_graph(const GraphSpec& g, std::uint64_t seed) {
  Multigraph out = parlap::make_generated_graph(g.spec, seed);
  if (!g.weights.empty()) {
    parlap::apply_weights(out, parlap::parse_weight_model(g.weights), seed + 1);
  }
  return out;
}

std::uint64_t rhs_seed(std::uint64_t run_seed, std::uint64_t i) {
  return parlap::splitmix64(run_seed * 0x9E3779B97F4A7C15ull + i);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

parlap::service::SolveJob make_job(const GraphSpec& g, std::uint64_t seed,
                                   std::string id) {
  parlap::service::SolveJob job;
  job.id = std::move(id);
  job.graph = g.spec;
  job.weights = g.weights;
  job.seed = seed;
  job.eps = kEps;
  job.project_rhs = true;
  return job;
}

void add_build_spans(Tracer& tr, int parent, double start,
                     const parlap::BuildStats& bs) {
  tr.add_sequence(start,
                  {{"core.build:degrees", bs.phases.degrees},
                   {"core.build:five_dd", bs.phases.five_dd},
                   {"core.build:partition", bs.phases.partition},
                   {"core.build:walk_graph", bs.phases.walk_graph},
                   {"core.build:schur", bs.phases.schur},
                   {"core.build:extract", bs.phases.extract},
                   {"core.build:base", bs.base_seconds},
                   {"core.build:pack", bs.pack_seconds}},
                  parent);
}

namespace {

/// The server-layer ratios of a workload that has no server.
void set_no_server(Record& r) {
  r.set("serve.shed_ratio", 0.0, "ratio", 1, "no server on this path");
  r.set("serve.error_ratio", 0.0, "ratio", 1, "no server on this path");
}

// --- oneshot -----------------------------------------------------------------

// Sized so a pass takes about three seconds at two threads: a run then
// holds enough passes for per-graph medians.
const std::vector<GraphSpec> kOneshotGraphs = {
    {"grid3d:16", ""},
    {"rmat:11", ""},
    {"ws:4096,6,0.1", ""},
    {"path:5000", ""},
    {"barbell:200", ""}};

}  // namespace

void run_oneshot(const Options& o, Record& r, Tracer& tr) {
  omp_set_num_threads(o.threads);
  const auto& registry = parlap::SolverRegistry::instance();
  parlap::SolverConfig config;
  config.seed = kGraphSeed;

  const std::size_t graphs = kOneshotGraphs.size();
  std::vector<std::vector<double>> load(graphs), factor(graphs), solve(graphs);
  std::vector<double> pass_steal;
  const auto t0 = Clock::now();
  int passes = 0;
  while (passes == 0 || since(t0) < o.seconds) {
    const StealMeter steal;
    std::int64_t levels = 0, stored = 0, iterations = 0, escalations = 0;
    for (std::size_t i = 0; i < graphs; ++i) {
      Multigraph g;
      {
        ScopedSpan span(tr, "graph:make_generated_graph");
        const auto t = Clock::now();
        g = load_graph(kOneshotGraphs[i]);
        load[i].push_back(since(t));
      }
      const Vector b = parlap::random_rhs(g.num_vertices(), rhs_seed(o.seed, i));
      Vector x(b.size());

      std::unique_ptr<parlap::AnySolver> solver;
      {
        ScopedSpan span(tr, "api.registry:create");
        const double start = trace_now();
        const auto t = Clock::now();
        solver = registry.create("parlap", g, config);
        factor[i].push_back(since(t));
        add_build_spans(tr, span.id(), start, *solver->build_stats());
      }
      parlap::RunReport report;
      {
        ScopedSpan span(tr, "core.solver:solve");
        const auto t = Clock::now();
        report = solver->solve(b, x, kEps);
        solve[i].push_back(since(t));
      }
      const double res = AnswerCheck(g).residual(b, x);
      r.attempt(report.converged && res <= kEps,
                kOneshotGraphs[i].spec + ": residual " + std::to_string(res) +
                    (report.converged ? "" : " (not converged)"));
      levels += solver->build_stats()->levels;
      stored += solver->stored_entries();
      iterations += report.iterations;
      escalations += report.escalations;
      if (passes == 0) r.host["precision"] = parlap::precision_name(report.precision);
    }
    // Per pass; Record::count fails the run if a pass disagrees.
    r.count("build.levels", levels);
    r.count("chain.stored_entries", stored);
    r.count("solver.iterations", iterations);
    r.count("solver.escalations", escalations);
    r.count("cache.misses", static_cast<std::int64_t>(graphs));
    pass_steal.push_back(steal.rate());
    ++passes;
  }

  // Per-graph medians over the quieter half of the passes.
  const auto keep = quiet_half(pass_steal);
  const auto kept = static_cast<std::int64_t>(keep.size());
  const std::string stat = "sum of per-graph medians over the quieter " +
                           std::to_string(kept) + " of " +
                           std::to_string(passes) + " passes";
  double setup = 0.0, solve_sum = 0.0, load_sum = 0.0;
  std::vector<double> answer_ms;  // one per (graph, kept pass)
  for (std::size_t i = 0; i < graphs; ++i) {
    setup += median(pick(factor[i], keep));
    solve_sum += median(pick(solve[i], keep));
    load_sum += median(pick(load[i], keep));
    for (const std::size_t p : keep) answer_ms.push_back((factor[i][p] + solve[i][p]) * 1e3);
  }
  const Tail t = tail(answer_ms);
  r.set("setup_s", setup, "s", kept, stat);
  r.set("solve_s", solve_sum, "s", kept, stat);
  r.set("answer_s", setup + solve_sum, "s", kept, "setup_s + solve_s");
  r.set("op_ms", (setup + solve_sum) * 1e3 / static_cast<double>(graphs), "ms",
        kept, "answer_s per graph");
  r.set("p50_ms", median(answer_ms), "ms",
        static_cast<std::int64_t>(answer_ms.size()), "median over graphs and kept passes");
  r.set("tail_ms", t.value, "ms", static_cast<std::int64_t>(answer_ms.size()),
        t.label);
  r.set("graph.load_ms", load_sum * 1e3, "ms", kept, stat);
  r.set("host.steal_cpus", median(pass_steal), "cpus", passes,
        "median CPU steal rate over passes");
  // No engine, cache or server on this path: a fresh factorization per
  // graph (all misses), width-1 solves.
  r.set("cache.hit_ratio", 0.0, "ratio", 1, "no cache on this path");
  r.set("engine.panel_occupancy", 1.0, "ratio", 1, "width-1 solves");
  r.counts["cache.single_flight_waits"] = 0;
  set_no_server(r);
  r.set("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.set("passes", passes, "count");

  if (o.trace) probe_layers(o, kOneshotGraphs, r, tr);
}

// --- many_rhs ----------------------------------------------------------------

namespace {

const std::vector<GraphSpec> kManyRhsGraphs = {
    {"grid2d:96", "powerlaw:1e-4,1e4,2"}, {"rmat:12", ""}};
// One full panel per graph per batch: short batches, so a run holds
// enough of them for a median that shrugs off bursts of host noise.
constexpr int kJobsPerGraph = 8;
constexpr int kBlockWidth = 8;
constexpr int kManyRhsSetups = 5;
constexpr int kMinBatches = 5;

}  // namespace

void run_many_rhs(const Options& o, Record& r, Tracer& tr) {
  using parlap::service::SolveEngine;
  using parlap::service::SolveJob;
  omp_set_num_threads(o.threads);

  std::vector<SolveJob> warm, jobs;
  std::vector<std::size_t> job_graph;
  const std::string tag = "s" + std::to_string(o.seed);
  for (std::size_t gi = 0; gi < kManyRhsGraphs.size(); ++gi) {
    warm.push_back(make_job(kManyRhsGraphs[gi], kGraphSeed,
                            tag + "-warm-g" + std::to_string(gi)));
    for (int j = 0; j < kJobsPerGraph; ++j) {
      jobs.push_back(make_job(kManyRhsGraphs[gi], kGraphSeed,
                              tag + "-g" + std::to_string(gi) + "-" + std::to_string(j)));
      job_graph.push_back(gi);
    }
  }
  std::vector<Multigraph> graphs;
  for (const auto& g : kManyRhsGraphs) graphs.push_back(load_graph(g));
  std::vector<AnswerCheck> checks(graphs.begin(), graphs.end());

  parlap::service::EngineOptions eo;
  eo.workers = 1;  // latency mode: one worker, inner OpenMP at o.threads
  eo.block_width = kBlockWidth;
  eo.keep_solutions = true;

  auto run_batch = [&](SolveEngine& engine, const std::vector<SolveJob>& batch,
                       double& wall) {
    ScopedSpan span(tr, "service.engine:run");
    const double start = trace_now();
    const auto t = Clock::now();
    parlap::service::BatchResult res = engine.run(batch);
    wall = since(t);
    for (const auto& p : res.panels) {
      const int pid = tr.add("service.engine:panel", start + p.queue_seconds,
                             start + p.queue_seconds + p.exec_seconds, span.id());
      tr.add_sequence(start + p.queue_seconds,
                      {{"core.solver:solve_panel", p.solve_seconds}}, pid);
    }
    return res;
  };

  // Set-up: a fresh engine's warm-up batch pays the factorizations and
  // the lazy Richardson step estimates. The last engine serves the timed
  // batches.
  std::vector<double> setup, setup_steal, cache_build_ms;
  std::unique_ptr<SolveEngine> engine;
  for (int k = 0; k < kManyRhsSetups; ++k) {
    const StealMeter steal;
    engine = std::make_unique<SolveEngine>(eo);
    double wall = 0.0;
    const auto res = run_batch(*engine, warm, wall);
    setup.push_back(wall);
    setup_steal.push_back(steal.rate());
    cache_build_ms.push_back(res.stats.cache.build_seconds * 1e3);
    std::int64_t levels = 0;
    for (const auto& jr : res.jobs) {
      r.attempt(jr.ok && jr.report.converged, "warm-up " + jr.id + ": " + jr.error);
      levels += jr.report.build.levels;
    }
    r.count("build.levels", levels);
    r.count("cache.misses", static_cast<std::int64_t>(res.stats.cache.misses));
  }

  std::vector<double> batch_wall, batch_steal, queue_ms, solve_ms, occupancy,
      hit_ratio;
  std::int64_t single_flight = 0;
  const auto t0 = Clock::now();
  while (static_cast<int>(batch_wall.size()) < kMinBatches || since(t0) < o.seconds) {
    const StealMeter steal;
    double wall = 0.0;
    const auto res = run_batch(*engine, jobs, wall);
    batch_wall.push_back(wall);
    batch_steal.push_back(steal.rate());
    for (const auto& p : res.panels) queue_ms.push_back(p.queue_seconds * 1e3);
    std::int64_t iterations = 0, escalations = 0;
    for (std::size_t j = 0; j < res.jobs.size(); ++j) {
      const auto& jr = res.jobs[j];
      solve_ms.push_back(jr.report.solve_seconds * 1e3);
      iterations += jr.report.iterations;
      escalations += jr.report.escalations;
      const auto& g = graphs[job_graph[j]];
      const double res_norm =
          jr.ok ? checks[job_graph[j]].residual(
                      parlap::service::job_rhs(jobs[j], g.num_vertices()),
                      jr.solution)
                : INFINITY;
      r.attempt(jr.ok && jr.report.converged && res_norm <= kEps,
                jr.id + ": residual " + std::to_string(res_norm) + " " + jr.error);
    }
    occupancy.push_back(res.stats.panel_occupancy);
    hit_ratio.push_back(res.stats.cache_hit_rate);
    single_flight += static_cast<std::int64_t>(res.stats.cache.single_flight_waits);
    r.count("solver.iterations", iterations);
    r.count("solver.escalations", escalations);
    r.count("engine.panels", static_cast<std::int64_t>(res.panels.size()));
  }

  const double rhs = static_cast<double>(jobs.size());
  const auto batches = static_cast<std::int64_t>(batch_wall.size());
  const auto quiet_setup = pick(setup, quiet_half(setup_steal));
  const auto quiet_wall = pick(batch_wall, quiet_half(batch_steal));
  const auto kept = static_cast<std::int64_t>(quiet_wall.size());
  const std::string stat = "median of the quieter " + std::to_string(kept) +
                           " of " + std::to_string(batches) + " batches";
  const Tail qt = tail(queue_ms);
  const Tail bt = tail(batch_wall);
  r.set("setup_s", median(quiet_setup), "s",
        static_cast<std::int64_t>(quiet_setup.size()),
        "median of the quieter " + std::to_string(quiet_setup.size()) + " of " +
            std::to_string(kManyRhsSetups) + " warm-ups");
  r.set("rhs_ms", median(quiet_wall) * 1e3 / rhs, "ms", kept, stat + " / RHS");
  r.set("op_ms", median(quiet_wall) * 1e3 / rhs, "ms", kept, "rhs_ms");
  // A batch user's request is the whole batch.
  r.set("p50_ms", median(quiet_wall) * 1e3, "ms", kept, stat);
  r.set("tail_ms", bt.value * 1e3, "ms", batches, bt.label + " batch wall");
  r.set("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.set("batches", static_cast<double>(batches), "count");
  r.set("host.steal_cpus", median(batch_steal), "cpus", batches,
        "median CPU steal rate over batches");
  r.set("engine.queue_wait_ms.p50", median(queue_ms), "ms",
        static_cast<std::int64_t>(queue_ms.size()), "median");
  r.set("engine.queue_wait_ms.tail", qt.value, "ms",
        static_cast<std::int64_t>(queue_ms.size()), qt.label);
  r.set("engine.solve_ms", median(solve_ms), "ms",
        static_cast<std::int64_t>(solve_ms.size()), "median per job");
  r.set("engine.panel_occupancy", median(occupancy), "ratio", batches, "median");
  r.set("cache.build_ms", median(cache_build_ms), "ms", kManyRhsSetups,
        "median warm-up build");
  r.set("cache.hit_ratio", median(hit_ratio), "ratio", batches, "median");
  r.counts["cache.single_flight_waits"] = single_flight;
  set_no_server(r);
  r.host["precision"] = "fp64";

  if (o.trace) probe_layers(o, kManyRhsGraphs, r, tr);
}

}  // namespace perfbench

namespace {

std::string arg_value(int argc, char** argv, const std::string& flag,
                      const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  if (!fallback.empty()) return fallback;
  throw std::invalid_argument("missing " + flag);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  try {
    o.workload = arg_value(argc, argv, "--workload");
    o.seed = std::stoull(arg_value(argc, argv, "--seed"));
    o.seconds = std::stod(arg_value(argc, argv, "--seconds"));
    o.trace = arg_value(argc, argv, "--trace", "0") == "1";
    o.serve_binary = arg_value(argc, argv, "--serve-binary", "-");
    o.run_dir = arg_value(argc, argv, "--run-dir", ".");
    o.trace_file = arg_value(argc, argv, "--trace-file", "-");
  } catch (const std::exception& e) {
    std::cerr << "parlap_perfbench: " << e.what() << "\n";
    return 2;
  }
  // Two OpenMP threads (and two serve workers and connections), or one
  // on a single core. At four threads on a shared 4-vCPU host, CPU steal
  // by other tenants stalls spinning OpenMP barriers and made runs 3-10x
  // slower from one minute to the next; two threads keep the parallel
  // runtime in the measurement and leave headroom.
  o.threads = std::min(2, omp_get_num_procs());

  Record r;
  r.workload = o.workload;
  r.seed = o.seed;
  r.trace = o.trace;
  r.host["threads"] = std::to_string(o.threads);
  r.host["simd_active"] =
      parlap::kernels::simd_level_name(parlap::kernels::active_simd_level());
  r.host["simd_detected"] =
      parlap::kernels::simd_level_name(parlap::kernels::detected_simd_level());
  Tracer tr(o.trace);
  try {
    if (o.workload == "oneshot") {
      run_oneshot(o, r, tr);
    } else if (o.workload == "many_rhs") {
      run_many_rhs(o, r, tr);
    } else if (o.workload == "serve") {
      run_serve(o, r, tr);
    } else {
      std::cerr << "parlap_perfbench: unknown workload " << o.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "parlap_perfbench: " << e.what() << "\n";
    return 1;
  }
  r.set("fail_ratio",
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0,
        "ratio", r.attempted);
  if (o.trace) {
    r.self_ms = tr.self_ms_by_layer();
    if (o.trace_file != "-") {
      tr.write_chrome(o.trace_file);
      r.trace_file = o.trace_file;
    }
  }
  std::cout << r.to_json() << std::endl;
  return 0;
}
