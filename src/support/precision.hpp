// Precision — the storage-precision knob of the mixed-precision apply
// path (ISSUE 10).
//
// kFp64 is the default and the compatibility mode: every value array is
// double and solves are bit-identical to the pre-precision code. kFp32
// stores the factorization's value arrays (Jacobi diagonals, sub-CSR
// weights, dense base pseudo-inverse) in float — index arrays stay
// int32/int64 — and the chain apply computes in native float (half the
// bytes, twice the SIMD lanes per register); the requested accuracy is
// recovered by the fp64 outer PCG loop (iterative refinement),
// escalating to an fp64 factorization when refinement stalls. kAuto
// resolves per graph at solve setup: refinement needs a few extra outer
// iterations to pay off, so tiny systems (where the chain is
// cache-resident and the apply is too short to amortize them) stay
// fp64, and everything else takes the fp32 chain.
//
// kAuto never survives past setup: it is resolved to kFp64/kFp32 BEFORE
// FactorizationCache keys are formed, so cache entries are keyed by the
// storage precision actually built and an fp32 chain can never be
// returned to an fp64 request (or vice versa).
#pragma once

#include <optional>
#include <string_view>

#include "support/types.hpp"

namespace parlap {

enum class Precision : int {
  kFp64 = 0,
  kFp32 = 1,
  kAuto = 2,
};

/// Vertex count below which kAuto resolves to fp64: at this size the
/// whole chain fits in L2/L3, so halving bytes buys nothing and the
/// refinement iterations are pure overhead.
inline constexpr Vertex kAutoFp32MinVertices = 2048;

/// Lower-case mode name ("fp64" / "fp32" / "auto").
[[nodiscard]] inline const char* precision_name(Precision p) noexcept {
  switch (p) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kAuto:
      return "auto";
    case Precision::kFp64:
    default:
      return "fp64";
  }
}

/// Parses "fp64" / "fp32" / "auto" (aliases: "double", "float").
/// Unknown names return nullopt.
[[nodiscard]] inline std::optional<Precision> parse_precision(
    std::string_view name) noexcept {
  if (name == "fp64" || name == "double") return Precision::kFp64;
  if (name == "fp32" || name == "float") return Precision::kFp32;
  if (name == "auto") return Precision::kAuto;
  return std::nullopt;
}

/// Resolves kAuto against the operator's dimension (deterministic: the
/// same graph always resolves the same way, so cache keys are stable).
[[nodiscard]] inline Precision resolve_precision(Precision p,
                                                 Vertex n) noexcept {
  if (p != Precision::kAuto) return p;
  return n >= kAutoFp32MinVertices ? Precision::kFp32 : Precision::kFp64;
}

}  // namespace parlap
