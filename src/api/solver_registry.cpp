#include "api/solver_registry.hpp"

#include <omp.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "baselines/cg.hpp"
#include "baselines/dense_direct.hpp"
#include "baselines/ks16.hpp"
#include "baselines/tree_solver.hpp"
#include "core/solver.hpp"
#include "core/spanning_tree.hpp"
#include "graph/connectivity.hpp"
#include "linalg/laplacian_op.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace parlap {

namespace {

// Shared adapter plumbing: every built-in method keeps the exact input
// Laplacian and its component structure, projects the right-hand side
// onto the solvable subspace once, and measures the residual against the
// *input* operator so reports are comparable across methods.
class SolverBase : public AnySolver {
 public:
  /// Projects and measures residuals per column (so each report's
  /// relative_residual is the true per-RHS residual against the input
  /// operator), delegating the solve itself to run_panel. solve_seconds
  /// is the panel's shared wall time divided evenly over its columns.
  [[nodiscard]] std::vector<RunReport> solve_panel(
      std::span<const Vector> bs, std::span<Vector> xs,
      double eps) const final {
    PARLAP_CHECK(bs.size() == xs.size());
    if (bs.empty()) return {};
    const auto n = static_cast<std::size_t>(op_.dimension());
    const std::size_t k = bs.size();
    Panel bp;
    panel_from_vectors(bs, bp);
    PARLAP_CHECK_MSG(bp.rows() == n, "solver dimension " << n << " vs rhs "
                                                         << bp.rows());
    std::vector<double> b_norms(k);
    for (std::size_t c = 0; c < k; ++c) {
      project_out_ones_per_component(bp.col(c), comps_.label, comps_.count);
      b_norms[c] = norm2(bp.col(c));
    }

    RunReport proto;
    proto.method = method_;
    proto.vertices = op_.dimension();
    proto.edges = op_.num_multi_edges();
    proto.components = comps_.count;
    proto.setup_seconds = setup_seconds_;
    proto.threads = omp_get_max_threads();
    proto.precision = precision_;
    proto.panel_width = static_cast<int>(k);
    if (const BuildStats* bs_ptr = build_stats()) {
      proto.has_build_stats = true;
      proto.build = *bs_ptr;
    }

    Panel x(n, k);
    std::vector<int> iterations(k, 0);
    std::vector<int> escalations(k, 0);
    double apply_seconds = 0.0;
    WallTimer timer;
    run_panel(bp, x, eps, b_norms, iterations, escalations, apply_seconds);
    const double solve_share = timer.seconds() / static_cast<double>(k);

    // True per-RHS residuals against the input operator: one blocked
    // L-apply, then per-column norms (never a panel max).
    Panel residual;
    op_.apply(x, residual);
    panel_axpy(-1.0, bp, residual);  // residual = L x - b_p
    std::vector<RunReport> reports(k, proto);
    for (std::size_t c = 0; c < k; ++c) {
      RunReport& r = reports[c];
      r.iterations = iterations[c];
      r.escalations = escalations[c];
      r.solve_seconds = solve_share;
      r.apply_seconds = apply_seconds / static_cast<double>(k);
      if (b_norms[c] > 0.0) {
        r.relative_residual = norm2(residual.col(c)) / b_norms[c];
      }
      r.converged = r.relative_residual <= eps;
      const auto col = x.col(c);
      xs[c].assign(col.begin(), col.end());
    }
    return reports;
  }

  [[nodiscard]] const std::string& method() const noexcept final {
    return method_;
  }
  [[nodiscard]] double setup_seconds() const noexcept final {
    return setup_seconds_;
  }
  [[nodiscard]] Vertex dimension() const noexcept final {
    return op_.dimension();
  }

  void set_setup_seconds(double s) noexcept { setup_seconds_ = s; }

 protected:
  SolverBase(std::string method, const Multigraph& g)
      : method_(std::move(method)),
        op_(g),
        comps_(connected_components(g)) {}

  /// Storage precision stamped into every report (kFp64 unless the
  /// method has a precision knob). Call from the adapter constructor.
  void set_precision(Precision p) noexcept { precision_ = p; }

  /// Solves every column of `bp` (already kernel-projected; columns with
  /// b_norms[c] == 0 must be left as the zero vector) into `x` (arrives
  /// zero-filled), recording per-column outer-iteration and escalation
  /// counts and, when the method measures it, the panel's total
  /// preconditioner-apply seconds. Must be safe for concurrent callers
  /// (the AnySolver threading contract).
  virtual void run_panel(const Panel& bp, Panel& x, double eps,
                         std::span<const double> b_norms,
                         std::span<int> iterations,
                         std::span<int> escalations,
                         double& apply_seconds) const = 0;

  [[nodiscard]] const LaplacianOperator& op() const noexcept { return op_; }

  void require_connected() const {
    if (comps_.count > 1) {
      throw std::invalid_argument(
          "method '" + method_ + "' requires a connected graph; input has " +
          std::to_string(comps_.count) + " components");
    }
  }

 private:
  std::string method_;
  LaplacianOperator op_;
  Components comps_;
  double setup_seconds_ = 0.0;
  Precision precision_ = Precision::kFp64;
};

/// Base of the methods without a blocked kernel (the baselines): a panel
/// is solved column by column through run(), zero columns skipped.
class ColumnSolverBase : public SolverBase {
 protected:
  using SolverBase::SolverBase;

  /// Solves L x = b_p (kernel-projected, nonzero; x arrives zero-filled)
  /// to eps and returns the outer-iteration count.
  virtual int run(std::span<const double> bp, std::span<double> x,
                  double eps) const = 0;

 private:
  void run_panel(const Panel& bp, Panel& x, double eps,
                 std::span<const double> b_norms, std::span<int> iterations,
                 std::span<int> /*escalations*/,
                 double& /*apply_seconds*/) const final {
    for (std::size_t c = 0; c < bp.cols(); ++c) {
      if (b_norms[c] > 0.0) iterations[c] = run(bp.col(c), x.col(c), eps);
    }
  }
};

/// Times the whole factorization (base construction included) and stamps
/// it into the adapter, so setup_seconds is uniform across methods.
template <typename T, typename... Args>
std::unique_ptr<AnySolver> timed_make(Args&&... args) {
  PARLAP_TRACE_SPAN("solver.factor", "build");
  WallTimer timer;
  auto solver = std::make_unique<T>(std::forward<Args>(args)...);
  solver->set_setup_seconds(timer.seconds());
  static obs::LatencyHistogram& factor_hist =
      obs::MetricsRegistry::global().histogram("parlap.solver.factor_seconds");
  factor_hist.record_seconds(solver->setup_seconds());
  return solver;
}

// --- The paper's solver (Theorems 1.1 / 1.2) -----------------------------

class ParlapAdapter final : public SolverBase {
 public:
  ParlapAdapter(std::string name, const Multigraph& g, const SolverConfig& c,
                SplitStrategy split)
      : SolverBase(std::move(name), g) {
    SolverOptions options;
    options.seed = c.seed;
    options.split = split;
    options.precision = c.precision;
    if (c.split_scale > 0.0) options.split_scale = c.split_scale;
    if (c.max_iterations > 0)
      options.outer.max_iterations = c.max_iterations;
    impl_.emplace(g, options);
    // The solver resolves kAuto at construction; reports carry the
    // concrete storage precision it picked.
    set_precision(impl_->info().precision);
  }

 public:
  [[nodiscard]] EdgeId stored_entries() const noexcept override {
    return std::max<EdgeId>(1, impl_->info().stored_entries);
  }

  [[nodiscard]] Vertex jacobi_rows() const noexcept override {
    return impl_->info().jacobi_rows;
  }

  [[nodiscard]] std::size_t stored_bytes() const noexcept override {
    // True value bytes of the resident chains: fp32 storage reports
    // half the fp64 footprint of the same structure.
    return std::max<std::size_t>(1, impl_->info().stored_value_bytes);
  }

  [[nodiscard]] const BuildStats* build_stats() const noexcept override {
    return &impl_->build_stats();
  }

 private:
  /// True blocked solve: one chain traversal per preconditioner apply
  /// serves the whole panel (zero-norm columns come back as zero from
  /// the projected PCG).
  void run_panel(const Panel& bp, Panel& x, double eps,
                 std::span<const double> b_norms,
                 std::span<int> iterations,
                 std::span<int> escalations,
                 double& apply_seconds) const override {
    (void)b_norms;
    const std::vector<SolveStats> stats = impl_->solve_panel(bp, x, eps);
    for (std::size_t c = 0; c < stats.size(); ++c) {
      iterations[c] = stats[c].iterations;
      escalations[c] = stats[c].rebuilds;
      apply_seconds += stats[c].apply_seconds;
    }
  }

  std::optional<LaplacianSolver> impl_;
};

// --- Conjugate gradient family -------------------------------------------

class CgAdapter final : public ColumnSolverBase {
 public:
  enum class Kind { kPlain, kJacobi, kTree };

  CgAdapter(std::string name, const Multigraph& g, const SolverConfig& c,
            Kind kind)
      : ColumnSolverBase(std::move(name), g) {
    cg_options_.max_iterations = c.max_iterations;
    if (kind == Kind::kJacobi) {
      precond_ = jacobi_diagonal_preconditioner(op());
    } else if (kind == Kind::kTree) {
      require_connected();
      tree_.emplace(sample_spanning_tree(g, c.seed));
      precond_ = [this](std::span<const double> r, std::span<double> y) {
        tree_->solve(r, y);
      };
    }
  }

 public:
  [[nodiscard]] EdgeId stored_entries() const noexcept override {
    // CSR of the operator plus the (diagonal / tree) preconditioner.
    return std::max<EdgeId>(
        1, op().num_multi_edges() + static_cast<EdgeId>(dimension()));
  }

 private:
  int run(std::span<const double> bp, std::span<double> x,
          double eps) const override {
    const IterationStats stats =
        precond_ ? preconditioned_cg(op(), precond_, bp, x, eps, cg_options_)
                 : conjugate_gradient(op(), bp, x, eps, cg_options_);
    return stats.iterations;
  }

  CgOptions cg_options_;
  std::optional<TreeSolver> tree_;
  LinearMap precond_;  // empty = unpreconditioned
};

// --- KS16 sequential approximate Cholesky --------------------------------

class Ks16Adapter final : public ColumnSolverBase {
 public:
  Ks16Adapter(std::string name, const Multigraph& g, const SolverConfig& c)
      : ColumnSolverBase(std::move(name), g) {
    require_connected();
    Ks16Options options;
    options.seed = c.seed;
    if (c.split_scale > 0.0) options.split_scale = c.split_scale;
    options.cg_max_iterations = c.max_iterations;
    impl_.emplace(g, options);
  }

 public:
  [[nodiscard]] EdgeId stored_entries() const noexcept override {
    return std::max<EdgeId>(1, impl_->factor_entries());
  }

 private:
  int run(std::span<const double> bp, std::span<double> x,
          double eps) const override {
    return impl_->solve(bp, x, eps).iterations;
  }

  std::optional<Ks16Solver> impl_;
};

// --- Dense ground truth ---------------------------------------------------

class DenseAdapter final : public ColumnSolverBase {
 public:
  static constexpr Vertex kMaxVertices = 4096;

  DenseAdapter(std::string name, const Multigraph& g, const SolverConfig&)
      : ColumnSolverBase(std::move(name), g) {
    if (g.num_vertices() > kMaxVertices) {
      throw std::invalid_argument(
          "method 'dense' is O(n^3) time / O(n^2) memory; refusing n = " +
          std::to_string(g.num_vertices()) + " > " +
          std::to_string(kMaxVertices));
    }
    impl_.emplace(g);
  }

 public:
  [[nodiscard]] EdgeId stored_entries() const noexcept override {
    const auto n = static_cast<EdgeId>(dimension());
    return std::max<EdgeId>(1, n * (n + 1) / 2);  // packed grounded factor
  }

 private:
  int run(std::span<const double> bp, std::span<double> x,
          double /*eps*/) const override {
    impl_->solve(bp, x);
    return 0;
  }

  std::optional<DenseDirectSolver> impl_;
};

void register_builtins(SolverRegistry& r) {
  r.register_method(
      "parlap",
      "paper solver: uniform edge split (Thm 1.1), block Cholesky chain, "
      "PCG outer loop",
      [](const Multigraph& g, const SolverConfig& c) {
        return timed_make<ParlapAdapter>("parlap", g, c,
                                         SplitStrategy::kUniform);
      });
  r.register_method(
      "parlap-lev",
      "paper solver with leverage-score edge splitting (Thm 1.2)",
      [](const Multigraph& g, const SolverConfig& c) {
        return timed_make<ParlapAdapter>("parlap-lev", g, c,
                                         SplitStrategy::kLeverage);
      });
  r.register_method("cg", "plain conjugate gradient, no preconditioner",
                    [](const Multigraph& g, const SolverConfig& c) {
                      return timed_make<CgAdapter>("cg", g, c,
                                                   CgAdapter::Kind::kPlain);
                    });
  r.register_method("cg-jacobi",
                    "conjugate gradient with the Jacobi (diagonal) "
                    "preconditioner",
                    [](const Multigraph& g, const SolverConfig& c) {
                      return timed_make<CgAdapter>("cg-jacobi", g, c,
                                                   CgAdapter::Kind::kJacobi);
                    });
  r.register_method(
      "cg-tree",
      "conjugate gradient preconditioned by an exact random "
      "spanning-tree solve (connected graphs)",
      [](const Multigraph& g, const SolverConfig& c) {
        return timed_make<CgAdapter>("cg-tree", g, c, CgAdapter::Kind::kTree);
      });
  r.register_method(
      "ks16",
      "Kyng-Sachdeva (FOCS'16) sequential approximate Cholesky + PCG "
      "(connected graphs)",
      [](const Multigraph& g, const SolverConfig& c) {
        return timed_make<Ks16Adapter>("ks16", g, c);
      });
  r.register_method(
      "dense",
      "exact dense solve by grounded GTH factorization; ground truth for "
      "small instances",
      [](const Multigraph& g, const SolverConfig& c) {
        return timed_make<DenseAdapter>("dense", g, c);
      });
}

}  // namespace

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry;
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::register_method(std::string name, std::string description,
                                     Factory factory) {
  if (name.empty()) throw std::invalid_argument("solver name must not be empty");
  if (!factory) {
    throw std::invalid_argument("null factory for solver '" + name + "'");
  }
  if (entries_.count(name) != 0) {
    throw std::invalid_argument("solver '" + name + "' is already registered");
  }
  entries_.emplace(std::move(name),
                   Entry{std::move(description), std::move(factory)});
}

bool SolverRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<SolverMethodInfo> SolverRegistry::methods() const {
  std::vector<SolverMethodInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back({name, entry.description});
  }
  return out;  // std::map iterates in sorted order
}

std::string SolverRegistry::known_names() const {
  std::string out;
  for (const auto& [name, entry] : entries_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::unique_ptr<AnySolver> SolverRegistry::create(
    const std::string& name, const Multigraph& g,
    const SolverConfig& config) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw UnknownSolverError("unknown solver method '" + name +
                             "'; known methods: " + known_names());
  }
  return it->second.factory(g, config);
}

}  // namespace parlap
