// AnySolver — the one interface every solve path in the repo sits behind.
//
// The facade of the api layer: LaplacianSolver (Theorems 1.1/1.2), the
// KS16 and CG baselines, and the dense ground truth all present the same
// factor-once / solve-many surface. Instances are created by name through
// SolverRegistry (solver_registry.hpp); every solve is a panel of
// right-hand sides (solve() is the width-1 case), and each right-hand
// side gets a RunReport with uniformly-defined timings and residuals.
// Tools and future subsystems (batching, sharding, services) program
// against this header instead of the concrete solver classes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/run_report.hpp"
#include "core/build_stats.hpp"
#include "linalg/vector_ops.hpp"
#include "support/check.hpp"
#include "support/precision.hpp"
#include "support/types.hpp"

namespace parlap {

/// Method-agnostic tuning knobs forwarded to SolverRegistry factories.
/// A method ignores the fields it has no use for; zero-valued knobs mean
/// "use the method's own default".
struct SolverConfig {
  std::uint64_t seed = 42;  ///< randomized methods (parlap*, ks16, cg-tree)
  /// Edge-split scale (LaplacianSolver / KS16 alpha knob); 0 = default.
  double split_scale = 0.0;
  int max_iterations = 0;  ///< outer-iteration cap; 0 = method default
  /// Factorization storage precision (paper solver only; baselines
  /// ignore it). kFp32 halves the chain's value bytes and wraps the
  /// solve in fp64 iterative refinement; kAuto picks by problem size.
  /// Callers that key caches on the config (solve_engine) must resolve
  /// kAuto against the concrete graph first (resolve_precision), so an
  /// auto job and the explicit mode it resolves to share one entry.
  Precision precision = Precision::kFp64;
};

/// Type-erased Laplacian solver: factorized at construction (by a
/// SolverRegistry factory), then solves any number of right-hand sides.
/// Implementations must accept any b; the component of b in the kernel of
/// L is projected out first (the least-squares convention), and reported
/// residuals are relative to the projected b.
///
/// There is one solve path: solve_panel() is the only virtual solve, and
/// solve() is a width-1 panel.
///
/// Threading contract: one instance may serve many callers. solve_panel()
/// is const and MUST be safe to call concurrently from multiple threads on
/// the same instance (implementations keep per-call scratch, typically
/// via WorkspacePool, never mutable member buffers) and deterministic:
/// for fixed (b, eps) the result is bit-identical regardless of which
/// thread runs it, how many other solves are in flight, or the OpenMP
/// thread count. The solve-engine subsystem (src/service/) relies on
/// both properties to share cached factorizations across a worker pool.
class AnySolver {
 public:
  virtual ~AnySolver() = default;

  AnySolver(const AnySolver&) = delete;
  AnySolver& operator=(const AnySolver&) = delete;

  /// Solves L x = b to relative residual eps as a width-1 panel. `x` is
  /// overwritten (no warm start); `b.size()` and `x.size()` must equal
  /// dimension(). Thread-safe (see the class contract above).
  [[nodiscard]] RunReport solve(std::span<const double> b,
                                std::span<double> x, double eps) const {
    PARLAP_CHECK_MSG(x.size() == b.size(),
                     "solve wants x sized like b, got " << x.size()
                                                        << " vs " << b.size());
    const Vector bv(b.begin(), b.end());
    Vector xv;
    RunReport report = solve_panel({&bv, 1}, {&xv, 1}, eps).front();
    std::copy(xv.begin(), xv.end(), x.begin());
    return report;
  }

  /// Solves one system per entry of `bs`, returning one RunReport per
  /// right-hand side; xs[i] receives the solution of bs[i]. Column i's
  /// solution and report are bit-identical to a width-1 solve of bs[i],
  /// so a caller may batch any subset of its traffic without changing
  /// results. Blocked implementations (the paper's solver) share one
  /// factorization traversal per preconditioner application across the
  /// whole panel. Residuals stay per-RHS against the input operator.
  [[nodiscard]] virtual std::vector<RunReport> solve_panel(
      std::span<const Vector> bs, std::span<Vector> xs, double eps) const = 0;

  /// The registry key this instance was created under.
  [[nodiscard]] virtual const std::string& method() const noexcept = 0;

  /// Wall-clock seconds spent factorizing at construction.
  [[nodiscard]] virtual double setup_seconds() const noexcept = 0;

  /// Problem dimension = vertex count of the input graph.
  [[nodiscard]] virtual Vertex dimension() const noexcept = 0;

  /// Memory-cost proxy of the resident factorization, in stored matrix
  /// entries (FactorizationInfo::stored_entries for the paper's solver;
  /// comparable analogues for the baselines). Never less than 1.
  [[nodiscard]] virtual EdgeId stored_entries() const noexcept {
    return dimension() > 0 ? static_cast<EdgeId>(dimension()) : EdgeId{1};
  }

  /// Rows the preconditioner's Jacobi sweeps visit per apply
  /// (FactorizationInfo::jacobi_rows for the paper's solver); 0 for
  /// methods without such sweeps.
  [[nodiscard]] virtual Vertex jacobi_rows() const noexcept { return 0; }

  /// Resident value-array bytes of the factorization. The default
  /// charges 8 bytes (one fp64 value) per stored entry; methods with
  /// narrower storage (the paper solver's fp32 chains) override with
  /// their true byte footprint so FactorizationCache — which budgets in
  /// fp64-equivalent entries, i.e. stored_bytes()/8 — charges an fp32
  /// factorization half an fp64 one. Never less than 1.
  [[nodiscard]] virtual std::size_t stored_bytes() const noexcept {
    return static_cast<std::size_t>(stored_entries()) * sizeof(double);
  }

  /// Build-phase telemetry of the factorization (BuildStats recorded by
  /// the chain-construction pipeline), or nullptr for methods that do
  /// not factor through it. The pointer stays valid for the instance's
  /// lifetime; RunReports embed a copy.
  [[nodiscard]] virtual const BuildStats* build_stats() const noexcept {
    return nullptr;
  }

 protected:
  AnySolver() = default;
};

}  // namespace parlap
