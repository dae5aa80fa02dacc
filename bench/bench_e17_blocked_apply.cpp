// E17 — blocked apply throughput: preconditioner applications per second
// vs panel block width (1/4/8/16) on the E15 traffic-mix graphs.
//
// The headline kernel of the CSR-packed ApplyChain + Panel refactor: one
// chain traversal serves k right-hand sides, so the chain's index arrays
// (offsets, columns, weights, slot lists) and the parallel-region
// launches amortize across the panel. Width 1 is the scalar baseline;
// the per-RHS apply cost should drop as the width grows (bandwidth-bound
// regime), with bit-identical results at every width — E15's batch
// throughput is the end-to-end view of the same effect.
//
// Secondary cases measure end-to-end blocked solves (solve_many at
// width 1 vs 8) on the largest family.
//
// Since the SIMD dispatch layer (linalg/kernels), every case carries the
// dispatch level it ran at ("simd" column / simd_level metric), and each
// width is ALSO measured with dispatch forced to scalar
// ("<spec>/width:N/simd:scalar" cases) — the active-vs-scalar ratio at
// width >= 8 is the end-to-end evidence for the per-RHS apply-cost
// acceptance gate (ns/row detail lives in E19). Active-dispatch cases
// keep their PR-8 names so baselines stay comparable across the change.
//
// Since the mixed-precision chain, each width additionally runs against
// an fp32-storage factorization of the same graph
// ("<spec>/width:N/precision:fp32" cases, "fp32_speedup" column): the
// hot loop is bandwidth-bound, so halving the value bytes should
// approach 2x at the wide widths — E20 owns the full precision study
// (refinement iterations, achieved residuals); this column is the
// at-a-glance apply-side ratio next to the SIMD one.
#include <span>
#include <string>
#include <vector>

#include "api/graph_source.hpp"
#include "common.hpp"
#include "core/solver.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/panel.hpp"

using namespace parlap;
using namespace parlap::bench;

int main() {
  reporter().set_experiment("E17");
  const Vertex scale = smoke() ? Vertex{24} : Vertex{64};
  const int reps = smoke() ? 3 : 7;
  const std::size_t total_rhs = 16;  // divisible by every width below
  const std::vector<std::size_t> widths = {1, 4, 8, 16};

  // The E15 traffic mix (bench_e15_throughput.cpp), same specs and seed.
  const std::vector<std::string> graphs = {
      "ws:" + std::to_string(scale * 8) + ",6,0.1",
      "grid2d:" + std::to_string(scale),
      "gnm:" + std::to_string(scale * 4) + "," + std::to_string(scale * 16),
  };

  const kernels::SimdLevel active_level = kernels::active_simd_level();
  const char* active_name = kernels::simd_level_name(active_level);

  TextTable table("E17 blocked apply — " + std::to_string(total_rhs) +
                  " rhs per graph, widths 1/4/8/16, dispatch " +
                  active_name);
  table.set_header({"graph", "width", "simd", "apply_s_per_rhs", "rhs_per_s",
                    "speedup_vs_w1", "speedup_vs_scalar", "fp32_speedup"},
                   6);

  for (const std::string& spec : graphs) {
    const Multigraph g = make_generated_graph(spec, 17);
    SolverOptions opts;
    opts.seed = 17;
    const LaplacianSolver solver(g, opts);
    SolverOptions opts_f32 = opts;
    opts_f32.precision = Precision::kFp32;
    const LaplacianSolver solver_f32(g, opts_f32);
    const auto n = static_cast<std::size_t>(g.num_vertices());

    std::vector<Vector> rhs;
    for (std::size_t j = 0; j < total_rhs; ++j) {
      rhs.push_back(random_rhs(g.num_vertices(),
                               1000 + static_cast<std::uint64_t>(j)));
    }

    double per_rhs_w1 = 0.0;
    for (const std::size_t width : widths) {
      // Pre-pack the panels so the timed region is applies only.
      std::vector<Panel> panels;
      for (std::size_t start = 0; start < total_rhs; start += width) {
        Panel p;
        panel_from_vectors(
            std::span<const Vector>(rhs.data() + start, width), p);
        panels.push_back(std::move(p));
      }
      Panel out;
      const auto run_applies = [&] {
        for (const Panel& p : panels) solver.apply_preconditioner(p, out);
      };
      const auto run_applies_f32 = [&] {
        for (const Panel& p : panels) solver_f32.apply_preconditioner(p, out);
      };
      // Same workload twice: once with dispatch forced to scalar, once
      // at the active level. The scalar run goes first so the active
      // run leaves the process in its configured state.
      double per_rhs_scalar = 0.0;
      if (active_level != kernels::SimdLevel::kScalar) {
        kernels::set_simd_level(kernels::SimdLevel::kScalar);
        const std::vector<double> samples =
            measure(reps, /*warmup=*/1, run_applies);
        kernels::set_simd_level(active_level);
        per_rhs_scalar =
            summarize(samples).median / static_cast<double>(total_rhs);
        reporter().record(
            spec + "/width:" + std::to_string(width) + "/simd:scalar",
            {{"n", static_cast<double>(n)},
             {"width", static_cast<double>(width)},
             {"rhs", static_cast<double>(total_rhs)},
             {"simd_level", 0.0},
             {"apply_s_per_rhs", per_rhs_scalar}},
            samples);
      }
      // fp32-storage chain, same panels, active dispatch.
      const std::vector<double> samples_f32 =
          measure(reps, /*warmup=*/1, run_applies_f32);
      const double per_rhs_f32 =
          summarize(samples_f32).median / static_cast<double>(total_rhs);
      reporter().record(
          spec + "/width:" + std::to_string(width) + "/precision:fp32",
          {{"n", static_cast<double>(n)},
           {"width", static_cast<double>(width)},
           {"rhs", static_cast<double>(total_rhs)},
           {"simd_level",
            static_cast<double>(static_cast<int>(active_level))},
           {"apply_s_per_rhs", per_rhs_f32}},
          samples_f32);
      const std::vector<double> samples =
          measure(reps, /*warmup=*/1, run_applies);
      const TimingSummary summary = summarize(samples);
      const double per_rhs =
          summary.median / static_cast<double>(total_rhs);
      if (width == 1) per_rhs_w1 = per_rhs;
      const double speedup = per_rhs > 0.0 ? per_rhs_w1 / per_rhs : 0.0;
      const double vs_scalar =
          per_rhs > 0.0 && per_rhs_scalar > 0.0 ? per_rhs_scalar / per_rhs
                                                : 0.0;
      const double fp32_speedup =
          per_rhs > 0.0 && per_rhs_f32 > 0.0 ? per_rhs / per_rhs_f32 : 0.0;
      table.add_row({spec, static_cast<std::int64_t>(width), active_name,
                     per_rhs, per_rhs > 0.0 ? 1.0 / per_rhs : 0.0, speedup,
                     vs_scalar, fp32_speedup});
      reporter().record(
          spec + "/width:" + std::to_string(width),
          {{"n", static_cast<double>(n)},
           {"width", static_cast<double>(width)},
           {"rhs", static_cast<double>(total_rhs)},
           {"simd_level",
            static_cast<double>(static_cast<int>(active_level))},
           {"apply_s_per_rhs", per_rhs},
           {"rhs_per_second", per_rhs > 0.0 ? 1.0 / per_rhs : 0.0},
           {"speedup_vs_w1", speedup},
           {"speedup_vs_scalar", vs_scalar},
           {"speedup_fp32", fp32_speedup}},
          samples);
    }
  }

  // End-to-end: blocked solve_many on the largest family, width 1 vs 8.
  {
    const std::string spec = graphs.front();
    const Multigraph g = make_generated_graph(spec, 17);
    std::vector<Vector> bs;
    for (std::size_t j = 0; j < total_rhs; ++j) {
      bs.push_back(random_rhs(g.num_vertices(),
                              2000 + static_cast<std::uint64_t>(j)));
    }
    for (const int width : {1, 8}) {
      SolverOptions opts;
      opts.seed = 17;
      opts.max_block_width = width;
      const LaplacianSolver solver(g, opts);
      std::vector<Vector> xs(bs.size());
      const std::vector<double> samples = measure(reps, /*warmup=*/1, [&] {
        (void)solver.solve_many(bs, xs, 1e-8);
      });
      const TimingSummary summary = summarize(samples);
      const double per_rhs =
          summary.median / static_cast<double>(total_rhs);
      table.add_row({spec + " solve", static_cast<std::int64_t>(width),
                     active_name, per_rhs,
                     per_rhs > 0.0 ? 1.0 / per_rhs : 0.0, 0.0, 0.0, 0.0});
      reporter().record(spec + "/solve_many/width:" + std::to_string(width),
                        {{"width", static_cast<double>(width)},
                         {"rhs", static_cast<double>(total_rhs)},
                         {"solve_s_per_rhs", per_rhs}},
                        samples);
    }
  }

  print_table(table);
  return 0;
}
