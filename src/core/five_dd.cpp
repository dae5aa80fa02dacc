#include "core/five_dd.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/for_each.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace parlap {

namespace {

/// Weight of the row's entries that pass `keep`, summed in row order.
template <typename Keep>
double row_sum(std::span<const RowEntry> row, Keep&& keep) {
  double total = 0.0;
  for (const RowEntry& e : row) {
    if (keep(e)) total += e.w;
  }
  return total;
}

/// Draws `count` distinct elements of `pool` by partial Fisher-Yates on a
/// scratch copy into `out`, sorted for determinism downstream.
void sample_without_replacement(std::span<const Vertex> pool,
                                std::size_t count, Rng& rng,
                                std::vector<Vertex>& staging,
                                std::vector<Vertex>& out) {
  staging.assign(pool.begin(), pool.end());
  const std::size_t n = staging.size();
  PARLAP_CHECK(count <= n);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(n - i)));
    std::swap(staging[i], staging[j]);
  }
  out.assign(staging.begin(),
             staging.begin() + static_cast<std::ptrdiff_t>(count));
  std::sort(out.begin(), out.end());
}

/// filter(S) = { i in S : deg_{G[S]}(i) <= degree(i) / 5 } after one sweep
/// of g for S. Any subset of a filtered set only loses induced degree, so
/// the result is 5-DD.
std::vector<Vertex> filter_five_dd(LevelGraph& g, std::span<const Vertex> s,
                                   FiveDdDegree degree,
                                   FiveDdScratch& scratch,
                                   FiveDdResult& result) {
  result.edges_scanned += g.scan(s);
  const WallTimer timer;
  scratch.degree.resize(s.size());
  scratch.induced.resize(s.size());
  const std::uint8_t* candidate = scratch.candidate.data();
  // Rows in chunks of equal volume; each row's sums are its own.
  const std::span<const EdgeId> off = g.row_offsets();
  const int chunks = fork_pays(off.back()) ? thread_count() : 1;
  for_each_row_chunk(off, chunks, [&](std::size_t i, int) {
    const std::span<const RowEntry> row = g.row(i);
    scratch.degree[i] =
        degree == FiveDdDegree::kFull
            ? row_sum(row, [](const RowEntry&) { return true; })
            : row_sum(row, [&](const RowEntry& e) {
                return candidate[e.other] != 0;
              });
    scratch.induced[i] =
        row_sum(row, [&](const RowEntry& e) { return g.in_sample(e.other); });
  });
  result.degree_seconds += timer.seconds();
  std::vector<Vertex> f;
  f.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (scratch.induced[i] <= scratch.degree[i] / 5.0) f.push_back(s[i]);
  }
  return f;
}

}  // namespace

FiveDdResult five_dd_subset(LevelGraph& g, std::span<const Vertex> candidates,
                            FiveDdDegree degree, std::uint64_t seed,
                            const FiveDdOptions& opts,
                            FiveDdScratch& scratch) {
  const std::size_t nc = candidates.size();
  PARLAP_CHECK_MSG(nc >= 1, "5DDSubset needs a non-empty candidate set");

  const auto target = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(opts.accept_fraction *
                                             static_cast<double>(nc))));
  const auto sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(opts.sample_fraction *
                                             static_cast<double>(nc))));
  if (degree == FiveDdDegree::kWithinCandidates) {
    const auto n0 = static_cast<std::size_t>(g.id_bound());
    if (scratch.candidate.size() < n0) scratch.candidate.resize(n0, 0);
    for (const Vertex v : candidates) {
      PARLAP_CHECK(v >= 0 && v < g.id_bound());
      scratch.candidate[static_cast<std::size_t>(v)] = 1;
    }
  }

  FiveDdResult result;
  for (int round = 0; round < opts.max_rounds; ++round) {
    result.rounds = round + 1;
    Rng rng(seed, RngTag::kFiveDd, static_cast<std::uint64_t>(round));
    sample_without_replacement(candidates, sample_size, rng, scratch.staging,
                               scratch.sample);
    result.f = filter_five_dd(g, scratch.sample, degree, scratch, result);
    if (result.f.size() >= target) break;
    PARLAP_CHECK_MSG(round + 1 < opts.max_rounds,
                     "5DDSubset failed to reach target size "
                         << target << " in " << opts.max_rounds << " rounds");
  }

  // Optional growth: refilter (F union fresh sample) as a whole; keep the
  // larger of the two (filter output is always 5-DD). Every refiltered set
  // contains F, so the last sweep's rows always cover the result.
  for (int b = 0; b < opts.boost_rounds; ++b) {
    Rng rng(seed, RngTag::kFiveDd, 0xB0057000u + static_cast<std::uint64_t>(b));
    g.select(result.f);
    std::vector<Vertex> pool;
    pool.reserve(nc - result.f.size());
    for (const Vertex v : candidates) {
      if (!g.selected(v)) pool.push_back(v);
    }
    if (pool.empty()) break;
    const std::size_t extra = std::min(pool.size(), sample_size);
    std::vector<Vertex> s;
    sample_without_replacement(pool, extra, rng, scratch.staging, s);
    s.insert(s.end(), result.f.begin(), result.f.end());
    std::sort(s.begin(), s.end());
    std::vector<Vertex> grown = filter_five_dd(g, s, degree, scratch, result);
    if (grown.size() > result.f.size()) result.f = std::move(grown);
  }

  if (degree == FiveDdDegree::kWithinCandidates) {
    for (const Vertex v : candidates) {
      scratch.candidate[static_cast<std::size_t>(v)] = 0;
    }
  }
  g.select(result.f);
  return result;
}

FiveDdResult five_dd_subset(MultigraphView g, std::uint64_t seed,
                            const FiveDdOptions& opts) {
  LevelGraph lg;
  lg.assign(g);
  FiveDdScratch scratch;
  return five_dd_subset(lg, lg.live(), FiveDdDegree::kFull, seed, opts,
                        scratch);
}

FiveDdResult five_dd_subset(MultigraphView g,
                            std::span<const Vertex> candidates,
                            std::uint64_t seed, const FiveDdOptions& opts) {
  LevelGraph lg;
  lg.assign(g);
  FiveDdScratch scratch;
  return five_dd_subset(lg, candidates, FiveDdDegree::kWithinCandidates,
                        seed, opts, scratch);
}

bool is_five_dd(MultigraphView g, std::span<const Vertex> f,
                std::span<const Vertex> candidates) {
  const Vertex n = g.num_vertices();
  std::vector<std::uint8_t> in_cand(static_cast<std::size_t>(n),
                                    candidates.empty() ? 1 : 0);
  for (const Vertex v : candidates) in_cand[static_cast<std::size_t>(v)] = 1;
  std::vector<std::uint8_t> in_f(static_cast<std::size_t>(n), 0);
  for (const Vertex v : f) in_f[static_cast<std::size_t>(v)] = 1;

  std::vector<double> induced(static_cast<std::size_t>(n), 0.0);
  std::vector<double> cand_deg(static_cast<std::size_t>(n), 0.0);
  const EdgeId m = g.num_edges();
  for (EdgeId e = 0; e < m; ++e) {
    const Vertex u = g.edge_u(e);
    const Vertex v = g.edge_v(e);
    const Weight w = g.edge_weight(e);
    if (in_cand[static_cast<std::size_t>(u)] != 0 &&
        in_cand[static_cast<std::size_t>(v)] != 0) {
      cand_deg[static_cast<std::size_t>(u)] += w;
      cand_deg[static_cast<std::size_t>(v)] += w;
    }
    if (in_f[static_cast<std::size_t>(u)] != 0 &&
        in_f[static_cast<std::size_t>(v)] != 0) {
      induced[static_cast<std::size_t>(u)] += w;
      induced[static_cast<std::size_t>(v)] += w;
    }
  }
  for (const Vertex v : f) {
    const double cd = cand_deg[static_cast<std::size_t>(v)];
    if (induced[static_cast<std::size_t>(v)] > cd / 5.0 + 1e-12 * cd) {
      return false;
    }
  }
  return true;
}

}  // namespace parlap
