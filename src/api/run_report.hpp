// The unified per-solve record every facade method reports.
//
// RunReport is deliberately method-agnostic: whatever runs behind
// AnySolver — the paper's solver, a baseline, or a future backend — a
// caller (parlap_cli, benches, services) gets the same fields with the
// same meaning, so methods can be compared or swapped without per-class
// plumbing. Residuals are always measured against the *input* graph's
// Laplacian, never a method's internal approximation.
#pragma once

#include <string>

#include "core/build_stats.hpp"
#include "support/precision.hpp"
#include "support/types.hpp"

namespace parlap {

/// What one right-hand side of an AnySolver solve cost and reached, in
/// method-agnostic fields.
struct RunReport {
  std::string method;   ///< registry key ("parlap", "cg-tree", ...)
  Vertex vertices = 0;  ///< input graph size n
  EdgeId edges = 0;     ///< input multi-edges m
  Vertex components = 0;  ///< connected components of the input
  /// Wall-clock seconds the factory spent factorizing (paid once per
  /// solver instance, repeated verbatim in every report it produces).
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;  ///< this right-hand side's solve time
  int iterations = 0;          ///< outer iterations; 0 for direct methods
  /// ||b_p - L x|| / ||b_p|| with b_p the right-hand side after
  /// projecting out per-component means (the solvable part of b). For
  /// panel solves this is the TRUE residual of this RHS against the
  /// input operator, never a panel-wide maximum.
  double relative_residual = 0.0;
  bool converged = false;  ///< relative_residual <= the requested eps
  int threads = 1;         ///< OpenMP threads available during the solve
  /// Columns solved together in the blocked call that produced this
  /// report (1 for solve()). In a panel, solve_seconds is the
  /// panel's shared wall time divided evenly over its columns, so sums
  /// over jobs stay meaningful.
  int panel_width = 1;
  /// Preconditioner-apply wall seconds attributed to this right-hand
  /// side (the panel's shared apply time divided over its columns).
  /// Reported by methods that measure it; 0 otherwise.
  double apply_seconds = 0.0;
  /// Build-phase attribution of the factorization behind this solve
  /// (per-phase seconds, arena counters; repeated verbatim in every
  /// report the instance produces, like setup_seconds). Only methods
  /// that factor through the chain pipeline report it.
  bool has_build_stats = false;
  BuildStats build;
  /// Factorization storage precision behind this solve (kFp64 for every
  /// method without a precision knob; never kAuto — the solver resolves
  /// auto at construction). fp32 solves still meet the requested eps via
  /// fp64 refinement; only fp64 is bit-reproducible across precisions.
  Precision precision = Precision::kFp64;
  /// Refinement/escalation rounds the paper solver spent past the first
  /// factorization on this solve (0 = first chain converged; for fp32
  /// mode, > 0 means the solve escalated to an fp64 chain). Always 0
  /// for methods without the escalation ladder.
  int escalations = 0;
};

}  // namespace parlap
