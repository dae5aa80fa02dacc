#include "core/solver.hpp"

#include <algorithm>

#include "core/alpha_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace parlap {

namespace {

/// Splits the global graph into per-component local multigraphs.
std::vector<std::pair<std::vector<Vertex>, Multigraph>> split_components(
    const Multigraph& g, const Components& comps) {
  const Vertex n = g.num_vertices();
  std::vector<std::vector<Vertex>> members(
      static_cast<std::size_t>(comps.count));
  for (Vertex v = 0; v < n; ++v) {
    members[static_cast<std::size_t>(comps.label[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  std::vector<Vertex> local(static_cast<std::size_t>(n));
  for (const auto& vs : members) {
    for (std::size_t i = 0; i < vs.size(); ++i) {
      local[static_cast<std::size_t>(vs[i])] = static_cast<Vertex>(i);
    }
  }
  std::vector<std::pair<std::vector<Vertex>, Multigraph>> out;
  out.reserve(members.size());
  for (auto& vs : members) {
    const auto nl = static_cast<Vertex>(vs.size());
    out.emplace_back(std::move(vs), Multigraph(nl));
  }
  const EdgeId m = g.num_edges();
  // Size each component's edge arrays up front: one counting pass beats
  // growing three vectors incrementally per edge.
  std::vector<EdgeId> comp_edges(static_cast<std::size_t>(comps.count), 0);
  for (EdgeId e = 0; e < m; ++e) {
    ++comp_edges[static_cast<std::size_t>(
        comps.label[static_cast<std::size_t>(g.edge_u(e))])];
  }
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c].second.reserve_edges(comp_edges[c]);
  }
  for (EdgeId e = 0; e < m; ++e) {
    const Vertex u = g.edge_u(e);
    const auto c = static_cast<std::size_t>(
        comps.label[static_cast<std::size_t>(u)]);
    out[c].second.add_edge(local[static_cast<std::size_t>(u)],
                           local[static_cast<std::size_t>(g.edge_v(e))],
                           g.edge_weight(e));
  }
  return out;
}

}  // namespace

LaplacianSolver::LaplacianSolver(const Multigraph& g, SolverOptions opts)
    : opts_(opts) {
  g.validate();
  info_.n = g.num_vertices();
  info_.m = g.num_edges();
  // kAuto never survives construction: the resolution is a deterministic
  // function of n, so the same graph + options always factorizes at the
  // same storage precision (stable cache keys, reproducible solves).
  opts_.precision = resolve_precision(opts_.precision, info_.n);
  info_.precision = opts_.precision;

  const Components comps = connected_components(g);
  info_.components = comps.count;
  auto pieces = split_components(g, comps);

  comps_.resize(pieces.size());
  // Slots 0..max_escalation_round(); fp32 mode holds one extra rung (the
  // fp64 rebuild of round 0). Sized off max_rebuilds directly so the
  // adaptive flag can't shrink the vector below what round_for checks.
  const auto num_rounds =
      static_cast<std::size_t>(std::max(0, opts_.max_rebuilds)) + 1 +
      (opts_.precision == Precision::kFp32 ? 1 : 0);
  for (std::size_t c = 0; c < pieces.size(); ++c) {
    ComponentSolver& cs = comps_[c];
    cs.vertices = std::move(pieces[c].first);
    cs.graph = std::move(pieces[c].second);
    cs.op = LaplacianOperator(cs.graph);
    cs.rounds.resize(num_rounds);
    cs.rounds.front() = build_round(cs, /*round=*/0);
  }

  // Aggregate info over the round-0 factorizations (escalation rounds
  // built later by the adaptive path are not reflected; see header).
  info_.copies = opts_.split == SplitStrategy::kUniform && !comps_.empty()
                     ? comps_.front().rounds.front()->copies
                     : 0;
  for (const ComponentSolver& cs : comps_) {
    const ChainRound& cr = *cs.rounds.front();
    info_.split_edges += cr.split_edges;
    if (cr.chain.dimension() == 0) continue;
    info_.depth = std::max(info_.depth, cr.chain.depth());
    info_.jacobi_terms = std::max(info_.jacobi_terms, cr.chain.jacobi_terms());
    info_.stored_entries += cr.chain.stored_entries();
    info_.jacobi_rows += cr.chain.apply_chain().jacobi_rows();
    info_.stored_value_bytes += cr.chain.stored_value_bytes();
    build_stats_.accumulate(cr.chain.build_stats());
  }
}

std::shared_ptr<LaplacianSolver::ChainRound> LaplacianSolver::build_round(
    const ComponentSolver& comp, int round) const {
  const Vertex n = comp.graph.num_vertices();
  // Round-r parameters are pure functions of (options, r): copies double
  // per round, the seed shifts per round. Whichever solve first escalates
  // a component to round r therefore builds the same chain any other
  // caller would have built.
  //
  // fp32 ladder: round 0 is the fp32 chain; round 1 rebuilds the SAME
  // split parameters (same seed, same copies) at fp64 storage — the
  // precision-escape rung — and rounds >= 2 are the usual doubled-copies
  // rebuilds, all fp64. In fp64 mode every round is the classic ladder.
  Precision storage = opts_.precision;
  int param_round = round;
  if (opts_.precision == Precision::kFp32 && round > 0) {
    storage = Precision::kFp64;
    param_round = round - 1;
  }
  std::int64_t copies = default_split_copies(n, opts_.split_scale);
  std::uint64_t seed = opts_.seed;
  for (int r = 0; r < param_round; ++r) {
    copies = std::max<std::int64_t>(2, copies * 2);
    seed = splitmix64(seed ^ 0x5245425549ull);
  }

  auto cr = std::make_shared<ChainRound>();
  Multigraph split;
  if (opts_.split == SplitStrategy::kUniform || comp.graph.num_edges() == 0) {
    split = split_edges_uniform(comp.graph, copies);
  } else {
    const Vector tau = leverage_overestimates(comp.graph, seed, opts_.leverage);
    const double alpha = param_round == 0
                             ? default_alpha(n, opts_.split_scale)
                             : 1.0 / static_cast<double>(copies);
    split = split_edges_by_scores(comp.graph, tau, alpha);
  }
  cr->copies = copies;
  cr->split_edges = split.num_edges();
  // Consume the split graph: build releases its (m * copies)-sized edge
  // arrays as soon as level 0 has been absorbed into the build arena.
  BlockCholeskyOptions chain_opts = opts_.chain;
  chain_opts.precision = storage;
  cr->chain = BlockCholeskyChain::build(std::move(split), seed, chain_opts);
  return cr;
}

std::shared_ptr<LaplacianSolver::ChainRound> LaplacianSolver::round_for(
    const ComponentSolver& comp, int round) const {
  // Round 0 is written once in the constructor and read lock-free.
  if (round == 0) return comp.rounds.front();
  PARLAP_CHECK(static_cast<std::size_t>(round) < comp.rounds.size());
  {
    const std::scoped_lock lock(rounds_mutex_);
    if (comp.rounds[static_cast<std::size_t>(round)]) {
      return comp.rounds[static_cast<std::size_t>(round)];
    }
  }
  // Build outside the lock (factorization is expensive); the result is
  // deterministic, so if two threads race the duplicates are identical
  // and the first publication wins.
  std::shared_ptr<ChainRound> built = build_round(comp, round);
  const std::scoped_lock lock(rounds_mutex_);
  auto& slot = comp.rounds[static_cast<std::size_t>(round)];
  if (!slot) slot = std::move(built);
  return slot;
}

void LaplacianSolver::apply_laplacian(std::span<const double> x,
                                      std::span<double> y) const {
  PARLAP_CHECK(x.size() == static_cast<std::size_t>(info_.n));
  PARLAP_CHECK(y.size() == static_cast<std::size_t>(info_.n));
  for (const ComponentSolver& cs : comps_) {
    Vector xl(cs.vertices.size());
    Vector yl(cs.vertices.size());
    for (std::size_t i = 0; i < cs.vertices.size(); ++i) {
      xl[i] = x[static_cast<std::size_t>(cs.vertices[i])];
    }
    cs.op.apply(xl, yl);
    for (std::size_t i = 0; i < cs.vertices.size(); ++i) {
      y[static_cast<std::size_t>(cs.vertices[i])] = yl[i];
    }
  }
}

void LaplacianSolver::apply_preconditioner(std::span<const double> r,
                                           std::span<double> y) const {
  PARLAP_CHECK(r.size() == static_cast<std::size_t>(info_.n));
  PARLAP_CHECK(y.size() == static_cast<std::size_t>(info_.n));
  const auto scratch = scratch_pool_.acquire();
  Panel& rg = scratch->pb_global;
  rg.resize(r.size(), 1);
  assign(rg.col(0), r);
  apply_preconditioner_impl(rg, scratch->px_global, *scratch);
  assign(y, scratch->px_global.col(0));
}

void LaplacianSolver::apply_preconditioner(const Panel& r, Panel& y) const {
  const auto scratch = scratch_pool_.acquire();
  apply_preconditioner_impl(r, y, *scratch);
}

void LaplacianSolver::apply_preconditioner_impl(const Panel& r, Panel& y,
                                                SolveScratch& scratch) const {
  PARLAP_CHECK(r.rows() == static_cast<std::size_t>(info_.n));
  y.resize(r.rows(), r.cols());
  for (std::size_t c = 0; c < comps_.size(); ++c) {
    const ComponentSolver& cs = comps_[c];
    Panel& bl = scratch.pb_local;
    Panel& xl = scratch.px_local;
    panel_gather(r, cs.vertices, bl);
    panel_project_out_ones(bl);
    cs.rounds.front()->chain.apply(bl, xl,
                                   scratch.component_ws(c, comps_.size()));
    panel_project_out_ones(xl);
    panel_scatter(xl, cs.vertices, y);
  }
}

std::vector<SolveStats> LaplacianSolver::solve_panel_impl(
    const Panel& b, Panel& x, double eps, SolveScratch& scratch) const {
  PARLAP_CHECK(b.rows() == static_cast<std::size_t>(info_.n));
  PARLAP_CHECK(b.cols() >= 1);
  PARLAP_CHECK(eps > 0.0 && eps < 1.0);
  const std::size_t k = b.cols();
  x.resize(b.rows(), k);
  PARLAP_TRACE_SPAN_N(solve_span, "solve.panel", "solve");
  solve_span.arg("cols", static_cast<double>(k));
  solve_span.arg("n", static_cast<double>(info_.n));

  std::vector<SolveStats> total(k);
  for (SolveStats& s : total) s.converged = true;
  double apply_seconds = 0.0;

  for (std::size_t c = 0; c < comps_.size(); ++c) {
    const ComponentSolver& cs = comps_[c];
    Panel& bl = scratch.pb_local;
    panel_gather(b, cs.vertices, bl);
    // Least-squares convention: drop the kernel component of b.
    panel_project_out_ones(bl);
    Panel& xl = scratch.px_local;
    xl.resize(cs.vertices.size(), k);

    // Columns still escalating; everyone starts at round 0. A column's
    // round sequence (and so its bits) is exactly what a width-1 solve of
    // that column would run — escalation only compacts the stalled
    // columns into a narrower panel.
    std::vector<std::size_t> active(k);
    for (std::size_t col = 0; col < k; ++col) active[col] = col;
    for (int round = 0; !active.empty(); ++round) {
      PARLAP_TRACE_SPAN_N(round_span, "solve.round", "solve");
      round_span.arg("round", static_cast<double>(round));
      round_span.arg("cols", static_cast<double>(active.size()));
      if (round > 0) {
        // Escalation: these columns missed eps at the previous round's
        // chain and are re-solving on a rebuilt (reseeded) one.
        static obs::Counter& escalations =
            obs::MetricsRegistry::global().counter(
                "parlap.solve.escalations");
        escalations.add(static_cast<std::uint64_t>(active.size()));
        if (opts_.precision == Precision::kFp32 && round == 1) {
          // These columns left the fp32 chain for its fp64 twin: the
          // refinement floor, not the concentration bound, was the wall.
          static obs::Counter& precision_escalations =
              obs::MetricsRegistry::global().counter(
                  "parlap.solve.precision_escalations");
          precision_escalations.add(static_cast<std::uint64_t>(active.size()));
        }
      }
      const std::shared_ptr<ChainRound> cr = round_for(cs, round);
      const BlockCholeskyChain& chain = cr->chain;
      ApplyWorkspace& w = scratch.component_ws(c, comps_.size());
      OuterOptions outer = opts_.outer;
      if (chain.storage() == Precision::kFp32 && outer.stall_window == 0) {
        // Refinement rounds on the fp32 chain get stall detection: a
        // column pinned at its float-storage residual floor escalates to
        // the fp64 rung instead of burning the iteration cap. Healthy
        // refinement contracts far faster than 0.75x per 5 iterations,
        // so this never fires on a converging column. fp64 rounds run
        // without it.
        outer.stall_window = 5;
        outer.stall_improvement = 0.75;
      }
      // The projected W: every output column is made mean-free, as
      // apply_preconditioner does, so PCG never steps along the kernel.
      const PanelMap precond = [&chain, &w, &apply_seconds](const Panel& rr,
                                                           Panel& yy) {
        const WallTimer t;
        chain.apply(rr, yy, w);
        apply_seconds += t.seconds();
        panel_project_out_ones(yy);
      };

      const bool whole = active.size() == k;
      const Panel* round_b = &bl;
      Panel* round_x = &xl;
      if (!whole) {
        Panel& bsub = scratch.pb_sub;
        bsub.resize(bl.rows(), active.size());
        for (std::size_t j = 0; j < active.size(); ++j) {
          assign(bsub.col(j), bl.col(active[j]));
        }
        round_b = &bsub;
        round_x = &scratch.px_sub;
      }
      const std::vector<IterationStats> its = panel_pcg(
          cs.op, precond, *round_b, *round_x, eps, outer, &scratch.pcg);

      std::vector<std::size_t> still;
      for (std::size_t j = 0; j < active.size(); ++j) {
        const std::size_t col = active[j];
        const IterationStats& it = its[j];
        if (!it.reached_target && round < max_escalation_round()) {
          still.push_back(col);  // escalate: next round re-solves it
          continue;
        }
        if (!whole) assign(xl.col(col), round_x->col(j));
        SolveStats& s = total[col];
        s.iterations = std::max(s.iterations, it.iterations);
        s.relative_residual =
            std::max(s.relative_residual, it.relative_residual);
        s.converged = s.converged && it.reached_target;
        s.rebuilds += round;
      }
      active = std::move(still);
    }
    panel_project_out_ones(xl);
    panel_scatter(xl, cs.vertices, x);
  }
  for (SolveStats& s : total) {
    s.apply_seconds = apply_seconds / static_cast<double>(k);
  }
  return total;
}

std::vector<SolveStats> LaplacianSolver::solve_panel(const Panel& b,
                                                     Panel& x,
                                                     double eps) const {
  const auto scratch = scratch_pool_.acquire();
  return solve_panel_impl(b, x, eps, *scratch);
}

std::vector<SolveStats> LaplacianSolver::solve_many(
    std::span<const Vector> bs, std::span<Vector> xs, double eps) const {
  PARLAP_CHECK(bs.size() == xs.size());
  std::vector<SolveStats> stats;
  stats.reserve(bs.size());
  if (bs.empty()) return stats;
  const auto width =
      static_cast<std::size_t>(std::max(1, opts_.max_block_width));
  const auto scratch = scratch_pool_.acquire();
  for (std::size_t start = 0; start < bs.size(); start += width) {
    const std::size_t cols = std::min(width, bs.size() - start);
    panel_from_vectors(bs.subspan(start, cols), scratch->pb_global);
    std::vector<SolveStats> block = solve_panel_impl(
        scratch->pb_global, scratch->px_global, eps, *scratch);
    panel_to_vectors(scratch->px_global, xs.subspan(start, cols));
    stats.insert(stats.end(), block.begin(), block.end());
  }
  return stats;
}

SolveStats LaplacianSolver::solve(std::span<const double> b,
                                  std::span<double> x, double eps) const {
  PARLAP_CHECK(b.size() == static_cast<std::size_t>(info_.n));
  PARLAP_CHECK(x.size() == static_cast<std::size_t>(info_.n));
  const auto scratch = scratch_pool_.acquire();
  Panel& bg = scratch->pb_global;
  bg.resize(b.size(), 1);
  std::copy(b.begin(), b.end(), bg.col(0).begin());
  const std::vector<SolveStats> stats =
      solve_panel_impl(bg, scratch->px_global, eps, *scratch);
  std::copy(scratch->px_global.col(0).begin(),
            scratch->px_global.col(0).end(), x.begin());
  return stats.front();
}

}  // namespace parlap
