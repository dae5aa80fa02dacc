// Dispatch parity for the SIMD kernel layer (linalg/kernels): every
// kernel in every AVAILABLE vector table must produce bit-identical
// output to the scalar reference table — the "lane = column" contract
// docs/PERFORMANCE.md documents. Coverage is deliberately hostile to
// vector-width assumptions: panel widths {1, 3, 8, 17} (below, at, and
// past both AVX2 and AVX-512 lane counts, none a multiple of the
// other), row ranges starting at unaligned offsets, remainder tails
// shorter than a vector, misaligned base pointers, and CSR rows of
// irregular degree including empty ones.
//
// Levels the host cannot run are skipped (table_for would hand back the
// scalar table and the comparison would be vacuous); the test logs what
// it actually exercised. Under PARLAP_SIMD=scalar the active() table
// must BE the scalar table — the CI smoke leg asserts that env routing
// works end to end.
#include "linalg/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "linalg/kernels/aligned_buffer.hpp"
#include "support/rng.hpp"

namespace parlap::kernels {
namespace {

constexpr std::size_t kRows = 259;  // odd: every width leaves a tail
const std::size_t kWidths[] = {1, 3, 8, 17};

/// (lo, hi) row ranges: full, off-by-one front, deep unaligned start
/// with a short tail.
const std::pair<std::size_t, std::size_t> kRanges[] = {
    {0, kRows}, {1, kRows - 2}, {7, kRows - 3}, {250, kRows}};

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed, RngTag::kTest, 19);
  for (double& x : v) x = rng.next_in(-2.0, 2.0);
  return v;
}

/// Vector tables present on this machine (compiled in AND CPUID-backed).
std::vector<SimdLevel> available_vector_levels() {
  std::vector<SimdLevel> out;
  for (SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_available(lvl)) out.push_back(lvl);
  }
  return out;
}

/// A deliberately irregular CSR block: degrees cycle 0..6 (empty rows
/// included), neighbor ids and weights from the seeded stream.
struct CsrFixture {
  std::vector<EdgeId> off;
  std::vector<Vertex> nbr;
  std::vector<Weight> w;

  CsrFixture(std::size_t rows, std::size_t n_src, std::uint64_t seed) {
    Rng rng(seed, RngTag::kTest, 23);
    off.assign(rows + 1, 0);
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t deg = i % 7;
      off[i + 1] = off[i] + static_cast<EdgeId>(deg);
      for (std::size_t d = 0; d < deg; ++d) {
        nbr.push_back(static_cast<Vertex>(
            rng.next_below(static_cast<std::uint64_t>(n_src))));
        w.push_back(rng.next_in(0.1, 3.0));
      }
    }
  }
};

/// csr_fwd's row list: `count` distinct rows of [0, n_out) in shuffled
/// order, so a kernel that writes row j instead of idx[j] diverges.
std::vector<Vertex> shuffled_rows(std::size_t count, std::size_t n_out,
                                  std::uint64_t seed) {
  std::vector<Vertex> rows(n_out);
  for (std::size_t i = 0; i < n_out; ++i) rows[i] = static_cast<Vertex>(i);
  Rng rng(seed, RngTag::kTest, 31);
  for (std::size_t i = n_out; i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.next_below(i)]);
  }
  rows.resize(count);
  return rows;
}

/// csr_fwd written out plainly: row idx[j] accumulates its entries in
/// order, starting from its current value.
template <typename T>
void naive_csr_fwd(std::size_t lo, std::size_t hi, std::size_t k,
                   const CsrFixture& csr, const std::vector<T>& w,
                   const std::vector<Vertex>& idx, const T* src, T* out) {
  for (std::size_t j = lo; j < hi; ++j) {
    const auto r = static_cast<std::size_t>(idx[j]);
    for (std::size_t c = 0; c < k; ++c) {
      T acc = out[r * k + c];
      for (EdgeId p = csr.off[j]; p < csr.off[j + 1]; ++p) {
        const auto pz = static_cast<std::size_t>(p);
        acc = static_cast<T>(
            acc + w[pz] * src[static_cast<std::size_t>(csr.nbr[pz]) * k + c]);
      }
      out[r * k + c] = acc;
    }
  }
}

/// Misaligned view: a buffer whose data pointer is one double past any
/// allocator alignment, so vector loads can never assume 16/32/64-byte
/// alignment of the base.
struct Misaligned {
  explicit Misaligned(std::vector<double> v) : store(std::move(v)) {
    store.insert(store.begin(), 0.5);
  }
  [[nodiscard]] const double* data() const { return store.data() + 1; }
  [[nodiscard]] double* data() { return store.data() + 1; }
  std::vector<double> store;
};

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const char* kernel,
                       SimdLevel lvl, std::size_t k, std::size_t lo,
                       std::size_t hi) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i])
        << kernel << " diverges from scalar at flat index " << i << " (level "
        << simd_level_name(lvl) << ", k=" << k << ", rows [" << lo << ", "
        << hi << "))";
  }
}

TEST(KernelDispatch, ReportsCoverage) {
  const auto levels = available_vector_levels();
  std::string msg = "scalar";
  for (SimdLevel lvl : levels) msg += std::string(" ") + simd_level_name(lvl);
  std::fprintf(stderr, "kernel_dispatch: comparing levels: %s\n", msg.c_str());
  if (levels.empty()) {
    GTEST_SKIP() << "no vector ISA available; scalar-only host";
  }
}

TEST(KernelDispatch, ActiveTableHonorsEnv) {
  // The CI smoke leg runs this binary under PARLAP_SIMD=scalar and
  // PARLAP_SIMD=auto; assert the routing the env var promises.
  const char* env = std::getenv("PARLAP_SIMD");
  if (env != nullptr && std::string_view(env) == "scalar") {
    EXPECT_EQ(active().level, SimdLevel::kScalar);
  } else if (env == nullptr || std::string_view(env) == "auto") {
    EXPECT_EQ(active().level, detected_simd_level());
  }
  EXPECT_EQ(table_for(active().level).level, active().level);
}

TEST(KernelDispatch, UnavailableLevelFallsBackToScalar) {
  // table_for must never hand out a table the CPU cannot execute.
  for (SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!simd_level_available(lvl)) {
      EXPECT_EQ(table_for(lvl).level, SimdLevel::kScalar);
    }
  }
}

TEST(KernelDispatch, CsrJacobiMatchesScalarBitwise) {
  const KernelTable& ref = table_for(SimdLevel::kScalar);
  const CsrFixture csr(kRows, kRows, 401);
  const std::vector<double> inv_x = random_doubles(kRows, 402);
  const std::vector<double> y_diag = random_doubles(kRows, 403);
  for (SimdLevel lvl : available_vector_levels()) {
    const KernelTable& vec = table_for(lvl);
    for (std::size_t k : kWidths) {
      const Misaligned xb(random_doubles(kRows * k, 404));
      const Misaligned cur(random_doubles(kRows * k, 405));
      const std::vector<double> tmp0 = random_doubles(kRows * k, 406);
      for (const auto& [lo, hi] : kRanges) {
        std::vector<double> want = tmp0;
        std::vector<double> got = tmp0;
        ref.csr_jacobi(lo, hi, k, csr.off.data(), csr.nbr.data(),
                       csr.w.data(), inv_x.data(), y_diag.data(), xb.data(),
                       cur.data(), want.data());
        vec.csr_jacobi(lo, hi, k, csr.off.data(), csr.nbr.data(),
                       csr.w.data(), inv_x.data(), y_diag.data(), xb.data(),
                       cur.data(), got.data());
        expect_bits_equal(got, want, "csr_jacobi", lvl, k, lo, hi);
      }
    }
  }
}

TEST(KernelDispatch, CsrFwdMatchesScalarBitwise) {
  // In place: row j of the block adds into output row idx[j]. The scalar
  // reference must equal the plain loop, and every tier the reference.
  const KernelTable& ref = table_for(SimdLevel::kScalar);
  const std::size_t n_src = 180;
  const std::size_t n_out = 300;
  const CsrFixture csr(kRows, n_src, 501);
  const std::vector<Vertex> idx = shuffled_rows(kRows, n_out, 502);
  for (std::size_t k : kWidths) {
    const Misaligned src(random_doubles(n_src * k, 503));
    const std::vector<double> out0 = random_doubles(n_out * k, 504);
    for (const auto& [lo, hi] : kRanges) {
      // The kernel loads and stores its output rows, so they are
      // misaligned too.
      Misaligned want(out0);
      Misaligned plain(out0);
      ref.csr_fwd(lo, hi, k, csr.off.data(), csr.nbr.data(), csr.w.data(),
                  idx.data(), src.data(), want.data());
      naive_csr_fwd(lo, hi, k, csr, csr.w, idx, src.data(), plain.data());
      expect_bits_equal(want.store, plain.store, "csr_fwd(reference)",
                        SimdLevel::kScalar, k, lo, hi);
      for (SimdLevel lvl : available_vector_levels()) {
        Misaligned got(out0);
        table_for(lvl).csr_fwd(lo, hi, k, csr.off.data(), csr.nbr.data(),
                               csr.w.data(), idx.data(), src.data(),
                               got.data());
        expect_bits_equal(got.store, want.store, "csr_fwd", lvl, k, lo, hi);
      }
    }
  }
}

TEST(KernelDispatch, CsrBwdMatchesScalarBitwise) {
  const KernelTable& ref = table_for(SimdLevel::kScalar);
  const std::size_t n_src = 140;
  const CsrFixture csr(kRows, n_src, 601);
  for (SimdLevel lvl : available_vector_levels()) {
    const KernelTable& vec = table_for(lvl);
    for (std::size_t k : kWidths) {
      const Misaligned src(random_doubles(n_src * k, 602));
      const std::vector<double> out0 = random_doubles(kRows * k, 603);
      for (const auto& [lo, hi] : kRanges) {
        std::vector<double> want = out0;
        std::vector<double> got = out0;
        ref.csr_bwd(lo, hi, k, csr.off.data(), csr.nbr.data(), csr.w.data(),
                    src.data(), want.data());
        vec.csr_bwd(lo, hi, k, csr.off.data(), csr.nbr.data(), csr.w.data(),
                    src.data(), got.data());
        expect_bits_equal(got, want, "csr_bwd", lvl, k, lo, hi);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fp32 tier. The same "lane = column" contract holds per storage type:
// every float table does the same native float operations in the same
// order, so fp32-scalar and fp32-vector must agree to the bit — even on
// inputs that stress the float range (denormals, and magnitudes whose
// sums overflow to ±inf in every tier alike). Comparisons go through
// the bit pattern, not operator==, so a NaN produced by both tiers
// still counts as agreement.
// ---------------------------------------------------------------------------

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed, RngTag::kTest, 19);
  for (float& x : v) x = static_cast<float>(rng.next_in(-2.0, 2.0));
  return v;
}

/// Plants fp32 edge-case values at deterministic positions: a denormal,
/// a negative denormal, ±0, and near-FLT_MAX magnitudes whose products
/// or sums leave the float range (finite in the double accumulator,
/// ±inf after the narrowing store).
void inject_specials(std::vector<float>& v) {
  if (v.empty()) return;
  const float specials[] = {1e-42f,    -1e-42f, 0.0f,
                            -0.0f,     FLT_MAX, -FLT_MAX / 2,
                            FLT_MIN,   3e38f};
  const std::size_t n_special = std::size(specials);
  for (std::size_t i = 0; i < n_special && i * 13 + 3 < v.size(); ++i) {
    v[i * 13 + 3] = specials[i];
  }
}

struct MisalignedF {
  explicit MisalignedF(std::vector<float> v) : store(std::move(v)) {
    store.insert(store.begin(), 0.5f);
  }
  [[nodiscard]] const float* data() const { return store.data() + 1; }
  [[nodiscard]] float* data() { return store.data() + 1; }
  std::vector<float> store;
};

void expect_bits_equal_f32(const std::vector<float>& got,
                           const std::vector<float>& want, const char* kernel,
                           SimdLevel lvl, std::size_t k, std::size_t lo,
                           std::size_t hi) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t gb = 0;
    std::uint32_t wb = 0;
    std::memcpy(&gb, &got[i], sizeof gb);
    std::memcpy(&wb, &want[i], sizeof wb);
    ASSERT_EQ(gb, wb) << kernel << " (fp32) diverges from scalar at flat index "
                      << i << " (got " << got[i] << ", want " << want[i]
                      << ", level " << simd_level_name(lvl) << ", k=" << k
                      << ", rows [" << lo << ", " << hi << "))";
  }
}

TEST(KernelDispatchF32, TableFollowsActiveLevel) {
  // The fp32 table is dispatched off the SAME level slot as fp64: one
  // --simd / PARLAP_SIMD decision governs both storage types.
  EXPECT_EQ(active<float>().level, active().level);
  EXPECT_EQ(&active<float>(), &table_for<float>(active().level));
  for (SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!simd_level_available(lvl)) {
      EXPECT_EQ(table_for<float>(lvl).level, SimdLevel::kScalar);
    }
  }
  EXPECT_EQ(&active<double>(), &active());
}

TEST(KernelDispatchF32, CsrJacobiMatchesScalarBitwise) {
  const KernelTableT<float>& ref = table_for<float>(SimdLevel::kScalar);
  const CsrFixture csr(kRows, kRows, 411);
  const std::vector<float> w(csr.w.begin(), csr.w.end());
  std::vector<float> inv_x = random_floats(kRows, 412);
  std::vector<float> y_diag = random_floats(kRows, 413);
  // Denormal scale rows and a float-overflow diagonal: the double
  // accumulator handles both exactly; the narrow decides the bits.
  inv_x[3] = 1e-42f;
  inv_x[17] = FLT_MIN;
  y_diag[9] = 3e38f;
  for (SimdLevel lvl : available_vector_levels()) {
    const KernelTableT<float>& vec = table_for<float>(lvl);
    for (std::size_t k : kWidths) {
      std::vector<float> xbv = random_floats(kRows * k, 414);
      std::vector<float> curv = random_floats(kRows * k, 415);
      inject_specials(xbv);
      inject_specials(curv);
      const MisalignedF xb(std::move(xbv));
      const MisalignedF cur(std::move(curv));
      const std::vector<float> tmp0 = random_floats(kRows * k, 416);
      for (const auto& [lo, hi] : kRanges) {
        std::vector<float> want = tmp0;
        std::vector<float> got = tmp0;
        ref.csr_jacobi(lo, hi, k, csr.off.data(), csr.nbr.data(), w.data(),
                       inv_x.data(), y_diag.data(), xb.data(), cur.data(),
                       want.data());
        vec.csr_jacobi(lo, hi, k, csr.off.data(), csr.nbr.data(), w.data(),
                       inv_x.data(), y_diag.data(), xb.data(), cur.data(),
                       got.data());
        expect_bits_equal_f32(got, want, "csr_jacobi", lvl, k, lo, hi);
      }
    }
  }
}

TEST(KernelDispatchF32, CsrFwdMatchesScalarBitwise) {
  const KernelTableT<float>& ref = table_for<float>(SimdLevel::kScalar);
  const std::size_t n_src = 180;
  const std::size_t n_out = 300;
  const CsrFixture csr(kRows, n_src, 511);
  const std::vector<float> w(csr.w.begin(), csr.w.end());
  const std::vector<Vertex> idx = shuffled_rows(kRows, n_out, 512);
  for (std::size_t k : kWidths) {
    std::vector<float> srcv = random_floats(n_src * k, 513);
    inject_specials(srcv);
    const MisalignedF src(std::move(srcv));
    std::vector<float> out0 = random_floats(n_out * k, 514);
    inject_specials(out0);
    for (const auto& [lo, hi] : kRanges) {
      MisalignedF want(out0);
      MisalignedF plain(out0);
      ref.csr_fwd(lo, hi, k, csr.off.data(), csr.nbr.data(), w.data(),
                  idx.data(), src.data(), want.data());
      naive_csr_fwd(lo, hi, k, csr, w, idx, src.data(), plain.data());
      expect_bits_equal_f32(want.store, plain.store, "csr_fwd(reference)",
                            SimdLevel::kScalar, k, lo, hi);
      for (SimdLevel lvl : available_vector_levels()) {
        MisalignedF got(out0);
        table_for<float>(lvl).csr_fwd(lo, hi, k, csr.off.data(),
                                      csr.nbr.data(), w.data(), idx.data(),
                                      src.data(), got.data());
        expect_bits_equal_f32(got.store, want.store, "csr_fwd", lvl, k, lo,
                              hi);
      }
    }
  }
}

TEST(KernelDispatchF32, CsrBwdMatchesScalarBitwise) {
  const KernelTableT<float>& ref = table_for<float>(SimdLevel::kScalar);
  const std::size_t n_src = 140;
  const CsrFixture csr(kRows, n_src, 611);
  const std::vector<float> w(csr.w.begin(), csr.w.end());
  for (SimdLevel lvl : available_vector_levels()) {
    const KernelTableT<float>& vec = table_for<float>(lvl);
    for (std::size_t k : kWidths) {
      std::vector<float> srcv = random_floats(n_src * k, 612);
      inject_specials(srcv);
      const MisalignedF src(std::move(srcv));
      const std::vector<float> out0 = random_floats(kRows * k, 613);
      for (const auto& [lo, hi] : kRanges) {
        std::vector<float> want = out0;
        std::vector<float> got = out0;
        ref.csr_bwd(lo, hi, k, csr.off.data(), csr.nbr.data(), w.data(),
                    src.data(), want.data());
        vec.csr_bwd(lo, hi, k, csr.off.data(), csr.nbr.data(), w.data(),
                    src.data(), got.data());
        expect_bits_equal_f32(got, want, "csr_bwd", lvl, k, lo, hi);
      }
    }
  }
}

TEST(KernelDispatchF32, AlignedBufferReuseAcrossWidths) {
  // The fp32 apply path reuses one AlignedBuffer<float> as panel scratch
  // across jobs of different widths (resize does NOT preserve or zero
  // contents on shrink). A kernel run into the reused, stale-contented
  // buffer must produce the same bits as a run into a fresh vector.
  const KernelTableT<float>& tab = active<float>();
  const CsrFixture csr(kRows, kRows, 811);
  const std::vector<float> w(csr.w.begin(), csr.w.end());
  const std::vector<float> inv_x = random_floats(kRows, 812);
  const std::vector<float> y_diag = random_floats(kRows, 813);
  AlignedBuffer<float> reused;
  // Widths descending then ascending: shrink reuses the allocation
  // (stale tail), growth reallocates — both paths must not leak stale
  // values into [lo, hi) output rows.
  for (std::size_t k : {16u, 8u, 1u, 16u}) {
    const std::vector<float> xb = random_floats(kRows * k, 820 + k);
    const std::vector<float> cur = random_floats(kRows * k, 840 + k);
    reused.resize(kRows * k);
    ASSERT_EQ(reused.size(), kRows * k);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(reused.data()) % kBufferAlign,
              0u);
    std::vector<float> fresh(kRows * k, -7.0f);
    std::copy(fresh.begin(), fresh.end(), reused.data());
    tab.csr_jacobi(0, kRows, k, csr.off.data(), csr.nbr.data(), w.data(),
                   inv_x.data(), y_diag.data(), xb.data(), cur.data(),
                   fresh.data());
    tab.csr_jacobi(0, kRows, k, csr.off.data(), csr.nbr.data(), w.data(),
                   inv_x.data(), y_diag.data(), xb.data(), cur.data(),
                   reused.data());
    const std::vector<float> got(reused.data(), reused.data() + kRows * k);
    expect_bits_equal_f32(got, fresh, "csr_jacobi(reused buffer)",
                          tab.level, k, 0, kRows);
  }
}

}  // namespace
}  // namespace parlap::kernels
