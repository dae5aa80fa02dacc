// BlockCholesky chain tests (Theorems 3.9 and 3.10): structural invariants
// of the chain, linearity/symmetry/PSD-ness of the ApplyCholesky operator,
// and the W ~1 L^+ approximation measured densely on small graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "core/alpha_bound.hpp"
#include "core/block_cholesky.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "support/rng.hpp"

namespace parlap {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Vector x(n);
  Rng rng(seed, RngTag::kTest, 99);
  for (auto& v : x) v = rng.next_in(-1.0, 1.0);
  return x;
}

/// Materializes W as a dense matrix by applying to basis vectors.
DenseMatrix materialize(const BlockCholeskyChain& chain) {
  const int n = chain.dimension();
  DenseMatrix w(n, n);
  ApplyWorkspace ws;
  Vector e(static_cast<std::size_t>(n), 0.0);
  Vector col(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    e[static_cast<std::size_t>(j)] = 1.0;
    chain.apply(e, col, ws);
    for (int i = 0; i < n; ++i) w(i, j) = col[static_cast<std::size_t>(i)];
    e[static_cast<std::size_t>(j)] = 0.0;
  }
  return w;
}

/// P A P with P = I - 11'/n (restrict to the ones-complement).
DenseMatrix project_ones(const DenseMatrix& a) {
  const int n = a.rows();
  DenseMatrix p(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      p(i, j) = (i == j ? 1.0 : 0.0) - 1.0 / static_cast<double>(n);
  return p.multiply(a).multiply(p);
}

TEST(BlockCholesky, ChainStructureInvariants) {
  // Thm 3.9: every level has at most m multi-edges (1), F_k is 5-DD (2,
  // enforced by construction), the base is small (3), d = O(log n) (4).
  const Multigraph g = make_grid2d(25, 25);
  const Multigraph split = split_edges_uniform(g, 8);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 5);

  EXPECT_LE(chain.base_size(), 100);
  EXPECT_GE(chain.depth(), 1);
  const EdgeId m0 = split.num_edges();
  Vertex prev_n = split.num_vertices() + 1;
  for (const LevelStats& ls : chain.level_stats()) {
    EXPECT_LE(ls.multi_edges, m0);          // Thm 3.9-(1)
    EXPECT_LT(ls.n, prev_n);                // strictly shrinking
    EXPECT_GE(ls.f_size, ls.n / 40);        // Lemma 3.4 acceptance
    EXPECT_EQ(ls.walks.retries, 0);
    prev_n = ls.n;
  }
  // d = O(log n): the paper's bound is log_{40/39}; with 1/20 sampling the
  // practical bound is ~20 ln(n/100). Assert a generous multiple.
  const double bound = 25.0 * std::log(static_cast<double>(g.num_vertices()));
  EXPECT_LE(chain.depth(), static_cast<int>(bound));
}

TEST(BlockCholesky, MatchesRecordedChains) {
  // Pins whole chains, not properties: three unit-weight graphs deeper
  // than one level, split as LaplacianSolver's first round splits them
  // (default_split_copies(n, 0.1)) and built at a fixed seed. Depth,
  // stored entries and the bits of one apply must equal the values
  // recorded below, so a build change that alters any sampled level, any
  // summed weight or any rounding shows here. Unit weights keep libm out
  // of the pinned bits. Only a labelled hash rotation updates them.
  struct Recorded {
    const char* name;
    Multigraph g;
    int depth;
    EdgeId stored_entries;
    std::uint64_t hash_fp64;
    std::uint64_t hash_fp32;
  };
  const Recorded cases[] = {
      {"grid2d:24", make_grid2d(24, 24), 40, 8528, 0x4f6586a10a8ad1baull,
       0x296b65d604046712ull},
      {"path:600", make_path(600), 40, 2000, 0x28eb182ab3d89cfdull,
       0x0a81b97fb3dd4166ull},
      {"barbell:60", make_barbell(60, 30), 10, 4356, 0x22acd8513a88dddfull,
       0xfae9ffbd7ffb58a4ull},
  };
  const auto hash = [](std::span<const double> x) {
    std::uint64_t h = 0x736F6C75'74696F6Eull;
    h = fingerprint_mix(h, static_cast<std::uint64_t>(x.size()));
    for (const double v : x) {
      h = fingerprint_mix(h, std::bit_cast<std::uint64_t>(v));
    }
    return h;
  };
  for (const Recorded& c : cases) {
    const Vertex n = c.g.num_vertices();
    const Multigraph split =
        split_edges_uniform(c.g, default_split_copies(n, 0.1));
    const Vector b = random_vector(static_cast<std::size_t>(n), 41);
    for (const Precision p : {Precision::kFp64, Precision::kFp32}) {
      BlockCholeskyOptions opts;
      opts.precision = p;
      const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 2024, opts);
      Vector y(b.size());
      chain.apply(b, y);
      const std::uint64_t want =
          p == Precision::kFp64 ? c.hash_fp64 : c.hash_fp32;
      EXPECT_EQ(chain.depth(), c.depth) << c.name;
      EXPECT_EQ(chain.stored_entries(), c.stored_entries) << c.name;
      EXPECT_EQ(hash(y), want)
          << c.name << (p == Precision::kFp64 ? " fp64" : " fp32")
          << " hash 0x" << std::hex << hash(y);
    }
  }
}

TEST(BlockCholesky, TinyGraphSkipsElimination) {
  const Multigraph g = make_path(50);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(g, 1);
  EXPECT_EQ(chain.depth(), 0);
  EXPECT_EQ(chain.base_size(), 50);
  // Apply == dense pinv.
  const Vector b = random_vector(50, 1);
  Vector got(50);
  chain.apply(b, got);
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const Vector want = pinv.apply(b);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_NEAR(got[i], want[i], 1e-9);
}

TEST(BlockCholesky, ApplyIsLinear) {
  const Multigraph g = make_erdos_renyi(300, 1200, 3);
  const Multigraph split = split_edges_uniform(g, 6);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 7);
  ApplyWorkspace ws;
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const Vector x = random_vector(n, 2);
  const Vector y = random_vector(n, 3);
  Vector combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = 2.0 * x[i] - 0.5 * y[i];
  Vector wx(n), wy(n), wcombo(n);
  chain.apply(x, wx, ws);
  chain.apply(y, wy, ws);
  chain.apply(combo, wcombo, ws);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(wcombo[i], 2.0 * wx[i] - 0.5 * wy[i], 1e-9);
  }
}

TEST(BlockCholesky, ApplyIsSymmetric) {
  const Multigraph g = make_grid2d(15, 15);
  const Multigraph split = split_edges_uniform(g, 6);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 9);
  ApplyWorkspace ws;
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const Vector x = random_vector(n, 4);
  const Vector y = random_vector(n, 5);
  Vector wx(n), wy(n);
  chain.apply(x, wx, ws);
  chain.apply(y, wy, ws);
  // <Wx, y> == <x, Wy>
  EXPECT_NEAR(dot(wx, y), dot(x, wy), 1e-7 * norm2(x) * norm2(y));
}

TEST(BlockCholesky, ApplyIsPsd) {
  const Multigraph g = make_random_regular(200, 4, 6);
  const Multigraph split = split_edges_uniform(g, 6);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 11);
  ApplyWorkspace ws;
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  for (std::uint64_t s = 0; s < 5; ++s) {
    const Vector x = random_vector(n, 100 + s);
    Vector wx(n);
    chain.apply(x, wx, ws);
    EXPECT_GE(dot(x, wx), -1e-9);
  }
}

TEST(BlockCholesky, OperatorApproximatesPinvWithinE1) {
  // Thm 3.10: W^+ ~1 L, i.e. the spectrum of W against L^+ (off the
  // kernel) lies within [e^-1, e^1]. Use a generous split factor so the
  // w.h.p. bound holds comfortably at this size.
  Multigraph g = make_erdos_renyi(150, 600, 7);
  apply_weights(g, WeightModel::uniform(0.5, 2.0), 8);
  const Multigraph split = split_edges_uniform(g, 40);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 13);

  DenseMatrix w = materialize(chain);
  w.symmetrize();
  const DenseMatrix w_proj = project_ones(w);
  const DenseMatrix pinv = project_ones(pseudo_inverse(laplacian_dense(g)));
  const SpectralBounds sb = relative_spectral_bounds(w_proj, pinv, 1e-7);
  EXPECT_GT(sb.lo, std::exp(-1.0));
  EXPECT_LT(sb.hi, std::exp(1.0));
}

TEST(BlockCholesky, DeterministicAcrossRuns) {
  const Multigraph g = make_grid2d(20, 20);
  const Multigraph split = split_edges_uniform(g, 4);
  const BlockCholeskyChain a = BlockCholeskyChain::build(split, 17);
  const BlockCholeskyChain b = BlockCholeskyChain::build(split, 17);
  EXPECT_EQ(a.depth(), b.depth());
  const Vector x = random_vector(400, 6);
  Vector ya(400), yb(400);
  a.apply(x, ya);
  b.apply(x, yb);
  for (std::size_t i = 0; i < 400; ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(BlockCholesky, JacobiTermsAreOddAndLogInDepth) {
  const Multigraph g = make_grid2d(25, 25);
  const Multigraph split = split_edges_uniform(g, 4);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 19);
  EXPECT_EQ(chain.jacobi_terms() % 2, 1);
  // l = ceil(log2(6 d)) (+1 if even) stays small.
  EXPECT_LE(chain.jacobi_terms(), 2 + static_cast<int>(std::ceil(
                                          std::log2(6.0 * chain.depth()))));
}

TEST(BlockCholesky, StoredEntriesAreWellBelowNaiveChain) {
  // Memory claim: only F-incident edges are retained, and parallel copies
  // of one edge share a single stored entry, so stored entries stay a
  // small multiple of m, not m * depth.
  const Multigraph g = make_grid2d(30, 30);
  const Multigraph split = split_edges_uniform(g, 4);
  const BlockCholeskyChain chain = BlockCholeskyChain::build(split, 23);
  const EdgeId naive =
      2 * split.num_edges() * static_cast<EdgeId>(chain.depth());
  EXPECT_LT(chain.stored_entries(), naive / 4);
}

TEST(BlockCholesky, StoredRowsHaveDistinctColumns) {
  // The level graphs keep every split copy for sampling, but extraction
  // sums a row's copies: no packed row of ff or cf repeats an F column, no
  // fc row repeats a slot, no two stored cf rows carry the same slot, each
  // ff row still sums to its Y diagonal, and cf is fc's transpose bit for
  // bit.
  const Multigraph grid = split_edges_uniform(make_grid2d(24, 24), 8);
  const Multigraph rmat = split_edges_uniform(make_rmat(10, 4096, 31), 8);
  for (const Multigraph* g : {&grid, &rmat}) {
    const BlockCholeskyChain chain = BlockCholeskyChain::build(*g, 29);
    const ApplyChain& ac = chain.apply_chain();
    const auto off = ac.offsets();
    const auto col = ac.columns();
    const auto w = ac.weights();
    const auto cf_slots = ac.cf_slots();
    ASSERT_GE(ac.depth(), 1);
    for (std::size_t k = 0; k < ac.levels().size(); ++k) {
      const ApplyChain::Level& lvl = ac.levels()[k];
      // Columns are F indices (ff, cf: below nf) or slots (fc: below n0).
      const auto rows_distinct = [&](std::size_t base, Vertex rows,
                                     Vertex cols, const char* block) {
        std::vector<Vertex> seen(static_cast<std::size_t>(cols), -1);
        for (Vertex r = 0; r < rows; ++r) {
          const auto rz = static_cast<std::size_t>(r);
          for (EdgeId p = off[base + rz]; p < off[base + rz + 1]; ++p) {
            const auto c = static_cast<std::size_t>(col[static_cast<std::size_t>(p)]);
            ASSERT_LT(c, seen.size());
            ASSERT_NE(seen[c], r) << block << " row " << r << " level " << k
                                  << " repeats column " << c;
            seen[c] = r;
          }
        }
      };
      rows_distinct(lvl.ff_off, lvl.nf, lvl.nf, "ff");
      rows_distinct(lvl.fc_off, lvl.nf, ac.dimension(), "fc");
      rows_distinct(lvl.cf_off, lvl.cf_rows, lvl.nf, "cf");

      std::vector<Vertex> tags(cf_slots.begin() + static_cast<std::ptrdiff_t>(lvl.cf_base),
                               cf_slots.begin() + static_cast<std::ptrdiff_t>(
                                                      lvl.cf_base + static_cast<std::size_t>(lvl.cf_rows)));
      std::sort(tags.begin(), tags.end());
      EXPECT_EQ(std::adjacent_find(tags.begin(), tags.end()), tags.end())
          << "level " << k << " stores two cf rows for one slot";

      for (Vertex i = 0; i < lvl.nf; ++i) {
        const auto iz = static_cast<std::size_t>(i);
        double sum = 0.0;
        for (EdgeId p = off[lvl.ff_off + iz]; p < off[lvl.ff_off + iz + 1]; ++p) {
          sum += w[static_cast<std::size_t>(p)];
        }
        const double diag = ac.y_diag()[lvl.f_base + iz];
        EXPECT_LE(std::abs(sum - diag), 1e-12 * std::abs(diag))
            << "level " << k << " F row " << i;
      }

      // (F index, slot, weight) from both blocks.
      using Triple = std::tuple<Vertex, Vertex, double>;
      std::vector<Triple> fc;
      std::vector<Triple> cf;
      for (Vertex i = 0; i < lvl.nf; ++i) {
        const auto iz = static_cast<std::size_t>(i);
        for (EdgeId p = off[lvl.fc_off + iz]; p < off[lvl.fc_off + iz + 1]; ++p) {
          const auto pz = static_cast<std::size_t>(p);
          fc.emplace_back(i, col[pz], w[pz]);
        }
      }
      for (Vertex r = 0; r < lvl.cf_rows; ++r) {
        const auto rz = static_cast<std::size_t>(r);
        const Vertex slot = cf_slots[lvl.cf_base + rz];
        for (EdgeId p = off[lvl.cf_off + rz]; p < off[lvl.cf_off + rz + 1]; ++p) {
          const auto pz = static_cast<std::size_t>(p);
          cf.emplace_back(col[pz], slot, w[pz]);
        }
      }
      std::sort(fc.begin(), fc.end());
      std::sort(cf.begin(), cf.end());
      EXPECT_EQ(fc, cf) << "level " << k;
    }
  }
}

TEST(BlockCholesky, SlotsPartitionVerticesByLevel) {
  // Every input vertex owns one row (slot) of the apply vector: level k's
  // F vertices hold [f_base, f_base + nf) in f_list order, the base holds
  // the last base_n slots in base order, and the slots a level's fc
  // columns and cf rows name belong to vertices it keeps. The elimination
  // is replayed from the F lists alone: a level keeps its other vertices
  // in increasing order, which numbers the next level.
  const Multigraph grid = split_edges_uniform(make_grid2d(24, 24), 8);
  const Multigraph rmat = split_edges_uniform(make_rmat(10, 4096, 31), 8);
  for (const Multigraph* g : {&grid, &rmat}) {
    const BlockCholeskyChain chain = BlockCholeskyChain::build(*g, 29);
    const ApplyChain& ac = chain.apply_chain();
    const auto n0 = static_cast<std::size_t>(ac.dimension());
    const auto slots = ac.slots();
    const auto f_lists = ac.f_lists();
    const auto off = ac.offsets();
    const auto col = ac.columns();
    const auto cf_slots = ac.cf_slots();
    ASSERT_GE(ac.depth(), 1);
    ASSERT_EQ(slots.size(), n0);

    std::vector<Vertex> sorted(slots.begin(), slots.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t s = 0; s < n0; ++s) {
      ASSERT_EQ(sorted[s], static_cast<Vertex>(s)) << "slots are no permutation";
    }

    // rows[v]: input row of the current level's vertex v.
    std::vector<Vertex> rows(n0);
    std::iota(rows.begin(), rows.end(), 0);
    for (std::size_t k = 0; k < ac.levels().size(); ++k) {
      const ApplyChain::Level& lvl = ac.levels()[k];
      ASSERT_EQ(rows.size(), static_cast<std::size_t>(lvl.n));
      std::vector<bool> is_f(rows.size(), false);
      for (Vertex i = 0; i < lvl.nf; ++i) {
        const std::size_t slot = lvl.f_base + static_cast<std::size_t>(i);
        const auto v = static_cast<std::size_t>(f_lists[slot]);
        is_f[v] = true;
        EXPECT_EQ(static_cast<std::size_t>(slots[static_cast<std::size_t>(rows[v])]), slot)
            << "level " << k << " F vertex " << i;
      }
      std::vector<Vertex> kept;
      for (std::size_t v = 0; v < rows.size(); ++v) {
        if (!is_f[v]) kept.push_back(rows[v]);
      }
      ASSERT_EQ(kept.size(), static_cast<std::size_t>(lvl.nc));

      // Slots past this level's F slice are exactly the kept vertices'.
      const std::size_t first_kept = lvl.f_base + static_cast<std::size_t>(lvl.nf);
      const auto nfz = static_cast<std::size_t>(lvl.nf);
      for (EdgeId p = off[lvl.fc_off]; p < off[lvl.fc_off + nfz]; ++p) {
        const auto s = static_cast<std::size_t>(col[static_cast<std::size_t>(p)]);
        EXPECT_GE(s, first_kept) << "level " << k << " fc column";
        EXPECT_LT(s, n0) << "level " << k << " fc column";
      }
      for (Vertex r = 0; r < lvl.cf_rows; ++r) {
        const auto s = static_cast<std::size_t>(
            cf_slots[lvl.cf_base + static_cast<std::size_t>(r)]);
        EXPECT_GE(s, first_kept) << "level " << k << " cf row " << r;
        EXPECT_LT(s, n0) << "level " << k << " cf row " << r;
      }
      rows = std::move(kept);
    }

    const auto base_n = static_cast<std::size_t>(ac.base_size());
    ASSERT_EQ(rows.size(), base_n);
    for (std::size_t j = 0; j < base_n; ++j) {
      EXPECT_EQ(static_cast<std::size_t>(slots[static_cast<std::size_t>(rows[j])]),
                n0 - base_n + j)
          << "base vertex " << j;
    }
  }

  // Depth 0 (the TinyGraphSkipsElimination graph): the base is the whole
  // vector, so the slots are the identity.
  const BlockCholeskyChain tiny = BlockCholeskyChain::build(make_path(50), 1);
  ASSERT_EQ(tiny.depth(), 0);
  const auto slots = tiny.apply_chain().slots();
  ASSERT_EQ(slots.size(), 50u);
  for (std::size_t v = 0; v < slots.size(); ++v) {
    EXPECT_EQ(static_cast<std::size_t>(slots[v]), v);
  }
}

}  // namespace
}  // namespace parlap
