// E19 — SIMD kernel dispatch microbenchmark: per-row cost of the chain
// apply's three sweeps (the whole dispatch table, linalg/kernels) at
// every ISA level the host can run, across panel widths 1/4/8/16.
//
// Each case times ONE serial kernel invocation over the full row range
// (callers own parallelization; this measures the per-lane arithmetic
// the dispatcher actually swaps), so the scalar-vs-vector ratio here is
// the upper bound on what E17's end-to-end blocked apply can realize.
// Because every level is bit-identical by contract (docs/PERFORMANCE.md),
// the speedup columns compare work per nanosecond for the SAME result
// bits. Levels the CPU lacks are skipped, not faked: table_for() would
// silently hand back scalar and the case would measure nothing new.
#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"
#include "linalg/kernels/kernels.hpp"

using namespace parlap;
using namespace parlap::bench;
using kernels::KernelTable;
using kernels::SimdLevel;

namespace {

/// Irregular CSR block shared by the sweep kernels: degrees cycle 0..7.
struct CsrFixture {
  std::vector<EdgeId> off;
  std::vector<Vertex> nbr;
  std::vector<Weight> w;
  std::vector<Vertex> idx;

  CsrFixture(std::size_t rows, std::size_t n_src) {
    Rng rng(29, RngTag::kTest, 31);
    off.assign(rows + 1, 0);
    idx.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t deg = i % 8;
      off[i + 1] = off[i] + static_cast<EdgeId>(deg);
      // csr_fwd's row list is duplicate-free: a stride permutation
      // (7919 is coprime to every row count used here).
      idx[i] = static_cast<Vertex>((i * 7919) % n_src);
      for (std::size_t d = 0; d < deg; ++d) {
        nbr.push_back(static_cast<Vertex>(
            rng.next_below(static_cast<std::uint64_t>(n_src))));
        w.push_back(rng.next_in(0.1, 3.0));
      }
    }
  }
};

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed, RngTag::kTest, 37);
  for (double& x : v) x = rng.next_in(-2.0, 2.0);
  return v;
}

}  // namespace

int main() {
  reporter().set_experiment("E19");
  const std::size_t rows = smoke() ? 20000 : 200000;
  const int reps = smoke() ? 5 : 9;
  const std::vector<std::size_t> widths = {1, 4, 8, 16};

  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (kernels::simd_level_available(lvl)) levels.push_back(lvl);
  }

  const std::size_t kmax = widths.back();
  const CsrFixture csr(rows, rows);
  const std::vector<double> a = random_doubles(rows * kmax, 11);
  const std::vector<double> b = random_doubles(rows * kmax, 12);
  std::vector<double> out(rows * kmax, 0.0);
  const std::vector<double> inv_x = random_doubles(rows, 13);
  const std::vector<double> y_diag = random_doubles(rows, 14);

  TextTable table("E19 kernel dispatch — ns/row, " + std::to_string(rows) +
                  " rows, serial kernels");
  table.set_header({"kernel", "level", "width", "ns_per_row",
                    "speedup_vs_scalar"},
                   3);

  // kernel name -> (width -> scalar ns/row), for the speedup column.
  const auto bench_one = [&](const char* kernel, SimdLevel lvl, std::size_t k,
                             double scalar_ns, std::size_t work_rows,
                             auto&& fn) -> double {
    const std::vector<double> samples = measure(reps, /*warmup=*/1, fn);
    const TimingSummary summary = summarize(samples);
    const double ns_per_row =
        summary.median * 1e9 / static_cast<double>(work_rows);
    const double speedup = ns_per_row > 0.0 && scalar_ns > 0.0
                               ? scalar_ns / ns_per_row
                               : 0.0;
    const char* level_name = kernels::simd_level_name(lvl);
    table.add_row({kernel, level_name, static_cast<std::int64_t>(k),
                   ns_per_row, speedup});
    reporter().record(
        std::string(kernel) + "/" + level_name + "/width:" +
            std::to_string(k),
        {{"width", static_cast<double>(k)},
         {"level", static_cast<double>(static_cast<int>(lvl))},
         {"rows", static_cast<double>(work_rows)},
         {"ns_per_row", ns_per_row},
         {"speedup_vs_scalar", speedup}},
        samples);
    return ns_per_row;
  };

  for (const std::size_t k : widths) {
    // Per-width scalar reference ns/row, filled at the kScalar iteration.
    double jac_ns = 0, fwd_ns = 0, bwd_ns = 0;
    for (const SimdLevel lvl : levels) {
      const KernelTable& kt = kernels::table_for(lvl);
      const double r1 = bench_one("csr_jacobi", lvl, k, jac_ns, rows, [&] {
        kt.csr_jacobi(0, rows, k, csr.off.data(), csr.nbr.data(),
                      csr.w.data(), inv_x.data(), y_diag.data(), a.data(),
                      b.data(), out.data());
      });
      if (lvl == SimdLevel::kScalar) jac_ns = r1;
      const double r2 = bench_one("csr_fwd", lvl, k, fwd_ns, rows, [&] {
        kt.csr_fwd(0, rows, k, csr.off.data(), csr.nbr.data(), csr.w.data(),
                   csr.idx.data(), b.data(), out.data());
      });
      if (lvl == SimdLevel::kScalar) fwd_ns = r2;
      const double r3 = bench_one("csr_bwd", lvl, k, bwd_ns, rows, [&] {
        kt.csr_bwd(0, rows, k, csr.off.data(), csr.nbr.data(), csr.w.data(),
                   b.data(), out.data());
      });
      if (lvl == SimdLevel::kScalar) bwd_ns = r3;
    }
  }

  print_table(table);
  return 0;
}
