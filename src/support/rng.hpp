// Deterministic, counter-based random number generation.
//
// All randomness in parlap flows through Philox4x32-10 [Salmon et al.,
// SC'11] keyed by (user seed, purpose tag) with the per-object index in the
// counter. A parallel loop can hand every iteration its own statistically
// independent stream without any shared state, so results are bit-identical
// regardless of thread count or iteration order — the property the test
// suite relies on to validate the parallel implementation against the
// sequential semantics of the paper's algorithms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "support/check.hpp"

namespace parlap {

/// Purpose tags separating independent random streams derived from one user
/// seed. Values are arbitrary but fixed for reproducibility.
enum class RngTag : std::uint64_t {
  kGraphGen = 0x67656E67u,      // graph generators
  kEdgeSplit = 0x73706C74u,     // alpha-bounding edge splitting
  kFiveDd = 0x35646473u,        // 5DDSubset vertex sampling
  kTerminalWalk = 0x77616C6Bu,  // C-terminal random walks
  kLeverage = 0x6C657665u,      // leverage-score sketching
  kBaseline = 0x62617365u,      // baseline solvers (KS16)
  kTest = 0x74657374u,          // unit tests
};

/// Philox4x32-10 counter-based PRNG. Stateless core: a (key, counter) pair
/// maps to 128 random bits, so results are reproducible for a fixed seed
/// regardless of thread count or iteration order.
class Philox {
 public:
  using Block = std::array<std::uint32_t, 4>;

  /// Generates one 128-bit block for the given 64-bit key pair and counter.
  static Block block(std::uint64_t key_lo, std::uint64_t key_hi,
                     std::uint64_t ctr_lo, std::uint64_t ctr_hi) noexcept {
    std::uint32_t k0 = static_cast<std::uint32_t>(key_lo);
    std::uint32_t k1 = static_cast<std::uint32_t>(key_lo >> 32);
    // Fold the high key word into the counter so the full 128 bits of
    // (key_lo, key_hi) influence the output.
    Block c = {static_cast<std::uint32_t>(ctr_lo),
               static_cast<std::uint32_t>(ctr_lo >> 32),
               static_cast<std::uint32_t>(ctr_hi ^ key_hi),
               static_cast<std::uint32_t>(ctr_hi >> 32 ^ key_hi >> 32)};
    for (int round = 0; round < 10; ++round) {
      c = single_round(c, k0, k1);
      k0 += kWeyl0;
      k1 += kWeyl1;
    }
    return c;
  }

 private:
  static constexpr std::uint32_t kMult0 = 0xD2511F53u;
  static constexpr std::uint32_t kMult1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;

  static Block single_round(const Block& c, std::uint32_t k0,
                            std::uint32_t k1) noexcept {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kMult0) * c[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kMult1) * c[2];
    return {static_cast<std::uint32_t>(p1 >> 32) ^ c[1] ^ k0,
            static_cast<std::uint32_t>(p1),
            static_cast<std::uint32_t>(p0 >> 32) ^ c[3] ^ k1,
            static_cast<std::uint32_t>(p0)};
  }
};

/// SplitMix64 bit-mixer; used to hash tags/indices into Philox keys.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A buffered stream view over Philox output. Cheap to construct (no state
/// beyond key + counter); satisfies UniformRandomBitGenerator.
///
/// Philox block b of a stream yields its draws 2b and 2b + 1. A loop over
/// many streams can take their first blocks together (first_draws) and
/// go on with any of them at block 1 (the four-argument constructor).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Stream for logical object `index` under `tag`, all derived from `seed`.
  Rng(std::uint64_t seed, RngTag tag, std::uint64_t index) noexcept
      : Rng(seed, tag, index, 0) {}
  /// The same stream positioned at Philox block `block`: its first draw is
  /// the original's draw 2 * block.
  Rng(std::uint64_t seed, RngTag tag, std::uint64_t index,
      std::uint64_t block) noexcept
      : key_lo_(tag_key(seed, tag)), key_hi_(index_key(index)),
        counter_(block) {}

  /// The first block of many streams: stream index[n] of (seed, tag)
  /// begins with draws index[n] (overwritten) and then second[n], the
  /// first two next_u64 of Rng(seed, tag, index[n]). Branch-free over
  /// structure of arrays, so GCC vectorizes the loop at the default ISA.
  static void first_draws(std::uint64_t seed, RngTag tag,
                          std::span<std::uint64_t> index,
                          std::span<std::uint64_t> second) noexcept {
    PARLAP_DCHECK(second.size() >= index.size());
    const std::uint64_t key_lo = tag_key(seed, tag);
    for (std::size_t n = 0; n < index.size(); ++n) {
      const Draws d = block_draws(key_lo, index_key(index[n]), 0);
      index[n] = d[0];
      second[n] = d[1];
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    if (next_ == 2) {
      draws_ = block_draws(key_lo_, key_hi_, counter_++);
      next_ = 0;
    }
    return draws_[static_cast<std::size_t>(next_++)];
  }

  std::uint32_t next_u32() noexcept {
    return static_cast<std::uint32_t>(next_u64());
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double() noexcept { return to_unit(next_u64()); }
  /// The double next_double makes of draw x.
  static double to_unit(std::uint64_t x) noexcept {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    PARLAP_DCHECK(bound > 0);
    while (true) {
      const std::uint64_t x = next_u64();
      const unsigned __int128 m =
          static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
      const std::uint64_t lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= static_cast<std::uint64_t>(-bound) % bound)
        return static_cast<std::uint64_t>(m >> 64);
    }
  }

  /// Uniform double in [lo, hi).
  double next_in(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

 private:
  /// The two draws of one Philox block, in the order next_u64 returns them.
  using Draws = std::array<std::uint64_t, 2>;

  /// The stream's Philox key: the low word depends on (seed, tag) alone,
  /// the high word on the index alone.
  static constexpr std::uint64_t tag_key(std::uint64_t seed,
                                         RngTag tag) noexcept {
    return splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(tag)));
  }
  static constexpr std::uint64_t index_key(std::uint64_t index) noexcept {
    return splitmix64(index ^ 0xA5A5A5A5DEADBEEFull);
  }
  static Draws block_draws(std::uint64_t key_lo, std::uint64_t key_hi,
                           std::uint64_t block) noexcept {
    const Philox::Block b = Philox::block(key_lo, key_hi, block, 0);
    return {b[2] | static_cast<std::uint64_t>(b[3]) << 32,
            b[0] | static_cast<std::uint64_t>(b[1]) << 32};
  }

  std::uint64_t key_lo_;
  std::uint64_t key_hi_;
  std::uint64_t counter_ = 0;
  Draws draws_{};
  int next_ = 2;  ///< draws_'s next unused entry; 2 = refill first
};

}  // namespace parlap
