// Runtime ISA dispatch: detect once via CPUID, honor $PARLAP_SIMD /
// set_simd_level() overrides, and hand out the active level's table for
// either storage type. Requests above the hardware's capability
// clamp to the detected level with a one-line stderr note — a forced
// "avx512" on an AVX2 host degrades gracefully instead of SIGILL-ing.
#include "linalg/kernels/kernels.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "linalg/kernels/kernels_tables.hpp"

namespace parlap::kernels {

namespace {

SimdLevel detect() noexcept {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(_M_X64))
  __builtin_cpu_init();
  // The AVX-512 tier is built with -mavx512f alone, so the foundation
  // bit is all it needs.
  if (avx512_table() != nullptr && __builtin_cpu_supports("avx512f")) {
    return SimdLevel::kAvx512;
  }
  if (avx2_table() != nullptr && __builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

SimdLevel clamp_to_detected(SimdLevel req) noexcept {
  const SimdLevel cap = detected_simd_level();
  if (static_cast<int>(req) <= static_cast<int>(cap)) return req;
  std::fprintf(stderr,
               "parlap: SIMD level '%s' not supported on this host; using "
               "'%s'\n",
               simd_level_name(req), simd_level_name(cap));
  return cap;
}

SimdLevel initial_level() noexcept {
  if (const char* env = std::getenv("PARLAP_SIMD")) {
    if (const auto parsed = parse_simd_level(env)) {
      return clamp_to_detected(*parsed);
    }
    std::fprintf(stderr,
                 "parlap: unknown PARLAP_SIMD value '%s' (want "
                 "scalar|avx2|avx512|auto); using auto\n",
                 env);
  }
  return detected_simd_level();
}

std::atomic<SimdLevel>& active_slot() noexcept {
  static std::atomic<SimdLevel> slot{initial_level()};
  return slot;
}

}  // namespace

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
    default:
      return "scalar";
  }
}

std::optional<SimdLevel> parse_simd_level(std::string_view name) noexcept {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  if (name == "auto") return detected_simd_level();
  return std::nullopt;
}

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel level = detect();
  return level;
}

SimdLevel active_simd_level() noexcept {
  return active_slot().load(std::memory_order_relaxed);
}

SimdLevel set_simd_level(SimdLevel level) noexcept {
  const SimdLevel eff = clamp_to_detected(level);
  active_slot().store(eff, std::memory_order_relaxed);
  return eff;
}

template <typename T>
const KernelTableT<T>& active() noexcept {
  return table_for<T>(active_simd_level());
}

template <typename T>
const KernelTableT<T>& table_for(SimdLevel level) noexcept {
  // Never hand out a table the CPU cannot execute: an unsupported
  // request falls back to scalar (set_simd_level clamps before here, so
  // this only fires for explicit table_for probes).
  if (!simd_level_available(level)) return scalar_table<T>();
  switch (level) {
    case SimdLevel::kAvx512:
      if (const KernelTableT<T>* t = avx512_table<T>()) return *t;
      break;
    case SimdLevel::kAvx2:
      if (const KernelTableT<T>* t = avx2_table<T>()) return *t;
      break;
    case SimdLevel::kScalar:
      break;
  }
  return scalar_table<T>();
}

template const KernelTableT<double>& active() noexcept;
template const KernelTableT<float>& active() noexcept;
template const KernelTableT<double>& table_for(SimdLevel) noexcept;
template const KernelTableT<float>& table_for(SimdLevel) noexcept;

bool simd_level_available(SimdLevel level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(detected_simd_level());
}

}  // namespace parlap::kernels
