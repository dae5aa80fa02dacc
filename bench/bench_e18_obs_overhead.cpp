// E18 — observability overhead: the cost of the span tracer and metrics
// registry (src/obs/) on the paths they instrument. Two measurements:
//
//   1. Micro: ns/op of a disabled PARLAP_TRACE_SPAN against an empty
//      loop, and of an enabled span (clock reads + buffer append), plus
//      Counter::add and LatencyHistogram::record_ns. The disabled span
//      is the number that must stay at "one load + branch" — it is the
//      license for leaving instrumentation compiled into release
//      builds.
//
//   2. Macro: E15-style solve-engine throughput with tracing compiled
//      in but disabled vs enabled, reporting the relative slowdown. The
//      regression gate (compare_benches.py) holds traced_off within the
//      noise band of the E15 baseline.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/solve_engine.hpp"
#include "support/timer.hpp"

using namespace parlap;
using namespace parlap::bench;

namespace {

/// ns per iteration of `body` over `iters` iterations.
template <typename F>
double ns_per_op(std::size_t iters, F&& body) {
  const std::uint64_t t0 = steady_now_ns();
  for (std::size_t i = 0; i < iters; ++i) body(i);
  const std::uint64_t t1 = steady_now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(iters);
}

std::vector<service::SolveJob> make_jobs(int repeats, Vertex scale) {
  const std::vector<std::string> graphs = {
      "ws:" + std::to_string(scale * 8) + ",6,0.1",
      "grid2d:" + std::to_string(scale),
  };
  std::vector<service::SolveJob> jobs;
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      service::SolveJob job;
      job.id = "g";
      job.id += std::to_string(gi);
      job.id += "-r";
      job.id += std::to_string(r);
      job.graph = graphs[gi];
      job.rhs = "random:" + std::to_string(r);
      job.seed = 17;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// Throughput of one warmed engine run with the tracer in the given
/// state. The tracer is cleared afterwards so enabled runs do not leak
/// buffers' worth of events into later measurements.
double engine_solves_per_second(std::span<const service::SolveJob> jobs,
                                bool traced) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  if (traced) {
    tracer.enable();
  } else {
    tracer.disable();
  }
  service::EngineOptions options;
  options.workers = 2;
  service::SolveEngine engine(options);
  (void)engine.run(jobs);  // warm: factor the working set
  const service::BatchResult batch = engine.run(jobs);
  tracer.disable();
  tracer.clear();
  return batch.stats.solves_per_second;
}

}  // namespace

int main() {
  reporter().set_experiment("E18");
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();

  // --- micro: per-op costs -------------------------------------------
  const std::size_t iters = smoke() ? 2'000'000 : 20'000'000;

  // The empty loop calibrates loop overhead; volatile sink defeats DCE.
  volatile std::uint64_t sink = 0;
  const double empty_ns =
      ns_per_op(iters, [&](std::size_t i) { sink = sink + i; });

  const double disabled_ns = ns_per_op(iters, [&](std::size_t i) {
    sink = sink + i;
    PARLAP_TRACE_SPAN("bench.noop", "bench");
  });

  obs::Counter counter;
  const double counter_ns = ns_per_op(iters, [&](std::size_t i) {
    sink = sink + i;
    counter.add(1);
  });

  obs::LatencyHistogram hist;
  const double hist_ns = ns_per_op(iters, [&](std::size_t i) {
    sink = sink + i;
    hist.record_ns(i & 0xffff);
  });

  // Enabled spans at a fraction of the iterations (each one is two
  // clock reads plus a buffer append; the buffer overflows by design —
  // drops are part of the measured path).
  tracer.clear();
  tracer.enable();
  const std::size_t span_iters = iters / 16;
  const double enabled_ns = ns_per_op(span_iters, [&](std::size_t i) {
    sink = sink + i;
    PARLAP_TRACE_SPAN("bench.span", "bench");
  });
  tracer.disable();
  tracer.clear();

  TextTable micro("E18 obs overhead — per-op cost (ns), " +
                  std::to_string(iters) + " iterations");
  micro.set_header({"op", "ns_per_op", "net_ns"}, 3);
  micro.add_row({std::string("empty_loop"), empty_ns, 0.0});
  micro.add_row({std::string("span_disabled"), disabled_ns,
                 disabled_ns - empty_ns});
  micro.add_row({std::string("counter_add"), counter_ns,
                 counter_ns - empty_ns});
  micro.add_row({std::string("hist_record"), hist_ns, hist_ns - empty_ns});
  micro.add_row({std::string("span_enabled"), enabled_ns,
                 enabled_ns - empty_ns});
  print_table(micro);

  reporter().record("micro",
                    {{"empty_loop_ns", empty_ns},
                     {"span_disabled_ns", disabled_ns},
                     {"span_disabled_net_ns", disabled_ns - empty_ns},
                     {"counter_add_ns", counter_ns},
                     {"hist_record_ns", hist_ns},
                     {"span_enabled_ns", enabled_ns}});

  // --- macro: engine throughput traced-off vs traced-on ---------------
  const int repeats = smoke() ? 4 : 12;
  const Vertex scale = smoke() ? Vertex{24} : Vertex{48};
  const std::vector<service::SolveJob> jobs = make_jobs(repeats, scale);

  const double off_sps = engine_solves_per_second(jobs, /*traced=*/false);
  const double on_sps = engine_solves_per_second(jobs, /*traced=*/true);
  const double slowdown = off_sps > 0.0 ? off_sps / on_sps : 0.0;

  TextTable macro("E18 obs overhead — engine throughput, " +
                  std::to_string(jobs.size()) + " jobs, 2 workers");
  macro.set_header({"tracing", "solves_per_s", "slowdown_vs_off"}, 4);
  macro.add_row({std::string("off"), off_sps, 1.0});
  macro.add_row({std::string("on"), on_sps, slowdown});
  print_table(macro);

  reporter().record("engine",
                    {{"jobs", static_cast<double>(jobs.size())},
                     {"traced_off_solves_per_second", off_sps},
                     {"traced_on_solves_per_second", on_sps},
                     {"traced_on_slowdown", slowdown}});
  return 0;
}
