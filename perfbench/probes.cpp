// Layer probes of the traced run: each layer's public calls, timed on
// the workload's distinct graphs, with a span around every call.
#include <omp.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/rhs.hpp"
#include "api/solver_registry.hpp"
#include "core/solver.hpp"
#include "linalg/laplacian_op.hpp"
#include "linalg/panel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kPanelWidth = 8;

/// Median seconds of `f` over at least three calls and 50 ms.
double time_reps(Tracer& tr, const std::string& span,
                 const std::function<void()>& f) {
  std::vector<double> times;
  const auto t0 = Clock::now();
  while (times.size() < 3 || (since(t0) < 0.05 && times.size() < 1000)) {
    ScopedSpan s(tr, span);
    const auto t = Clock::now();
    f();
    times.push_back(since(t));
  }
  return median(times);
}

/// Sums of one quantity over the probed graphs.
struct Totals {
  double load = 0, factor = 0, base = 0, arena_mb = 0, value_mb = 0;
  parlap::BuildPhaseTimes phases;
  std::int64_t split_edges = 0, copies = 0, stored = 0, edges = 0;
  double first_extra = 0, solve = 0, solve_apply = 0, many_per_rhs = 0;
  double apply_w1 = 0, apply_w1_t1 = 0, apply_w8 = 0;
  double matvec_w1 = 0, matvec_w8 = 0;
  double cg = 0;
  std::int64_t cg_iterations = 0;
};

}  // namespace

void probe_layers(const Options& o, const std::vector<GraphSpec>& graphs,
                  Record& r, Tracer& tr) {
  ScopedSpan root(tr, "bench:probe_layers");
  const auto& registry = parlap::SolverRegistry::instance();
  parlap::SolverConfig config;
  config.seed = kGraphSeed;
  parlap::SolverOptions options;
  options.seed = kGraphSeed;
  Totals t;

  for (std::size_t i = 0; i < graphs.size(); ++i) {
    omp_set_num_threads(o.threads);
    parlap::Multigraph g;
    {
      ScopedSpan s(tr, "graph:make_generated_graph");
      const auto t0 = Clock::now();
      g = load_graph(graphs[i]);
      t.load += since(t0);
    }
    const AnswerCheck check(g);
    const auto n = static_cast<std::size_t>(g.num_vertices());

    std::optional<parlap::LaplacianSolver> solver;
    {
      ScopedSpan s(tr, "core.solver:LaplacianSolver");
      const double start = trace_now();
      const auto t0 = Clock::now();
      solver.emplace(g, options);
      t.factor += since(t0);
      add_build_spans(tr, s.id(), start, solver->build_stats());
    }
    const auto& info = solver->info();
    const auto& bs = solver->build_stats();
    t.phases.accumulate(bs.phases);
    t.base += bs.base_seconds;
    t.arena_mb = std::max(t.arena_mb, static_cast<double>(bs.peak_arena_bytes) / 1e6);
    t.value_mb += static_cast<double>(info.stored_value_bytes) / 1e6;
    t.split_edges += info.split_edges;
    t.copies += info.copies;
    t.stored += info.stored_entries;
    t.edges += info.m;

    // Two solves of one right-hand side: the first also pays the lazy
    // Richardson step estimate.
    std::vector<parlap::Vector> bs_rhs;
    for (int c = 0; c < kPanelWidth; ++c) {
      bs_rhs.push_back(parlap::random_rhs(g.num_vertices(),
                                          rhs_seed(o.seed, 1000 + 16 * i + c)));
    }
    const parlap::Vector& b = bs_rhs.front();
    parlap::Vector x(n);
    double solve_time[2] = {0, 0};
    for (double& st : solve_time) {
      ScopedSpan s(tr, "core.solver:solve");
      const double start = trace_now();
      const auto t0 = Clock::now();
      const parlap::SolveStats stats = solver->solve(b, x, kEps);
      st = since(t0);
      tr.add_sequence(start, {{"core.apply_chain:apply", stats.apply_seconds}}, s.id());
      if (&st == &solve_time[1]) t.solve_apply += stats.apply_seconds;
      const double res = check.residual(b, x);
      r.attempt(stats.converged && res <= kEps,
                graphs[i].spec + " probe solve: residual " + std::to_string(res));
    }
    t.first_extra += solve_time[0] - solve_time[1];
    t.solve += solve_time[1];

    {
      std::vector<parlap::Vector> xs(kPanelWidth, parlap::Vector(n));
      ScopedSpan s(tr, "core.solver:solve_many");
      const auto t0 = Clock::now();
      const auto stats = solver->solve_many(bs_rhs, xs, kEps);
      t.many_per_rhs += since(t0) / kPanelWidth;
      for (int c = 0; c < kPanelWidth; ++c) {
        const double res = check.residual(bs_rhs[c], xs[c]);
        r.attempt(stats[c].converged && res <= kEps,
                  graphs[i].spec + " probe solve_many: residual " + std::to_string(res));
      }
    }

    parlap::Vector y(n);
    t.apply_w1 += time_reps(tr, "core.apply_chain:apply_preconditioner",
                            [&] { solver->apply_preconditioner(b, y); });
    omp_set_num_threads(1);
    t.apply_w1_t1 += time_reps(tr, "core.apply_chain:apply_preconditioner.t1",
                               [&] { solver->apply_preconditioner(b, y); });
    omp_set_num_threads(o.threads);
    parlap::Panel rp, yp(n, kPanelWidth);
    parlap::panel_from_vectors(bs_rhs, rp);
    t.apply_w8 += time_reps(tr, "core.apply_chain:apply_preconditioner.w8",
                            [&] { solver->apply_preconditioner(rp, yp); });

    t.matvec_w1 += time_reps(tr, "linalg:apply_laplacian",
                             [&] { solver->apply_laplacian(x, y); });
    const parlap::LaplacianOperator op(g);
    t.matvec_w8 += time_reps(tr, "linalg:laplacian_op.w8",
                             [&] { op.apply(rp, yp); });

    // Reference only: Jacobi-preconditioned CG on the same system.
    std::unique_ptr<parlap::AnySolver> cg;
    {
      ScopedSpan s(tr, "baselines:create");
      cg = registry.create("cg-jacobi", g, config);
    }
    {
      ScopedSpan s(tr, "baselines:solve");
      const auto t0 = Clock::now();
      const parlap::RunReport rep = cg->solve(b, x, kEps);
      t.cg += since(t0);
      t.cg_iterations += rep.iterations;
    }
  }

  const auto k = static_cast<std::int64_t>(graphs.size());
  r.set("graph.load_ms", t.load * 1e3, "ms", k, "sum over graphs");
  r.counts["split.edges"] = t.split_edges;
  r.counts["split.copies"] = t.copies;
  r.count("chain.stored_entries", t.stored);
  r.set("build.factor_s", t.factor, "s", k, "sum over graphs");
  r.set("build.degrees_s", t.phases.degrees, "s", k, "sum over graphs");
  r.set("build.five_dd_s", t.phases.five_dd, "s", k, "sum over graphs");
  r.set("build.partition_s", t.phases.partition, "s", k, "sum over graphs");
  r.set("build.walk_graph_s", t.phases.walk_graph, "s", k, "sum over graphs");
  r.set("build.schur_s", t.phases.schur, "s", k, "sum over graphs");
  r.set("build.extract_s", t.phases.extract, "s", k, "sum over graphs");
  r.set("build.base_s", t.base, "s", k, "sum over graphs");
  r.set("build.peak_arena_mb", t.arena_mb, "MB", k, "max over graphs");
  r.set("chain.op_complexity",
        static_cast<double>(t.stored) / static_cast<double>(std::max<std::int64_t>(1, t.edges)),
        "ratio", k, "stored entries per input edge");
  r.set("chain.value_mb", t.value_mb, "MB", k, "sum over graphs");
  r.set("chain.apply_ms.w1", t.apply_w1 * 1e3, "ms", k, "sum of medians");
  r.set("chain.apply_ms.w1.t1", t.apply_w1_t1 * 1e3, "ms", k, "sum of medians");
  r.set("chain.apply_scaling", t.apply_w1_t1 / t.apply_w1, "ratio", k,
        "1-thread over " + std::to_string(o.threads) + "-thread apply");
  r.set("chain.apply_ms_per_rhs.w8", t.apply_w8 * 1e3 / kPanelWidth, "ms", k,
        "sum of medians / 8");
  r.set("chain.apply_ns_per_entry",
        t.apply_w1 * 1e9 / static_cast<double>(std::max<std::int64_t>(1, t.stored)),
        "ns", k, "w1 apply / stored entries");
  r.set("solver.apply_share", t.solve_apply / t.solve, "ratio", k,
        "apply seconds / warm solve seconds");
  r.set("solver.first_solve_extra_s", t.first_extra, "s", k,
        "first minus second solve, summed");
  r.set("solver.solve_many_ms_per_rhs.w8", t.many_per_rhs * 1e3, "ms", k,
        "sum over graphs");
  r.set("linalg.matvec_ms.w1", t.matvec_w1 * 1e3, "ms", k, "sum of medians");
  r.set("linalg.matvec_ms.w8", t.matvec_w8 * 1e3, "ms", k, "sum of medians");
  r.set("baseline.cg_jacobi.rhs_ms", t.cg * 1e3, "ms", k, "sum over graphs");
  r.counts["baseline.cg_jacobi.iterations"] = t.cg_iterations;
  r.set("ratio.rhs_ms_vs_cg", t.solve / t.cg, "ratio", k,
        "parlap warm solve over cg-jacobi solve, same RHS and graphs");
}

}  // namespace perfbench
