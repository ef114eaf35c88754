// refine_roots_parallel: a finished report raised to a higher precision
// through the general path's per-cell QIR stage.  Hand-picked cells
// (exact roots, a neighbouring root on a cell's open end, the linear
// division, the rejections), then a randomized differential suite: every
// upgrade equals a cold find_real_roots_parallel at the target precision,
// called directly and through RootService's refined hits.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/root_finder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "service/root_service.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

ParallelRunResult solve_at(const Poly& p, std::size_t mu,
                           FinderStrategy strategy = FinderStrategy::kPaper,
                           int threads = 1) {
  RootFinderConfig cfg;
  cfg.mu_bits = mu;
  cfg.strategy = strategy;
  ParallelConfig par;
  par.num_threads = threads;
  return find_real_roots_parallel(p, cfg, par);
}

/// refine_roots_parallel of `stored` (cells of `isolated`) to mu.
RootReport refine_to(const Poly& isolated, const RootReport& stored,
                     std::size_t mu, int threads = 1, bool validate = false) {
  RootFinderConfig cfg;
  cfg.mu_bits = mu;
  cfg.validate = validate;
  ParallelConfig par;
  par.num_threads = threads;
  return refine_roots_parallel(isolated, stored, cfg, par).report;
}

RootReport refine_to(const ParallelRunResult& run, std::size_t mu,
                     int threads = 1) {
  return refine_to(run.isolated, run.report, mu, threads);
}

/// A stored report of the given cells, as a hand-built cache entry holds.
RootReport cells_at(std::vector<BigInt> roots, std::size_t mu) {
  RootReport stored;
  stored.roots = std::move(roots);
  stored.mu = mu;
  return stored;
}

/// Every RootReport field except `stats`.
void expect_same_report(const RootReport& a, const RootReport& b,
                        const std::string& label) {
  EXPECT_EQ(a.roots, b.roots) << label;
  EXPECT_EQ(a.multiplicities, b.multiplicities) << label;
  EXPECT_EQ(a.mu, b.mu) << label;
  EXPECT_EQ(a.bound_pow2, b.bound_pow2) << label;
  EXPECT_EQ(a.degree, b.degree) << label;
  EXPECT_EQ(a.distinct_roots, b.distinct_roots) << label;
  EXPECT_EQ(a.squarefree_reduced, b.squarefree_reduced) << label;
  EXPECT_EQ(a.used_sturm_fallback, b.used_sturm_fallback) << label;
}

/// (x - 1)(3 2^m x - 3 2^m - 1): roots 1 and 1 + 1/(3 2^m).  At mu = m the
/// second root's cell is (1, 1 + 2^-m], with the first root on its open
/// left end.
Poly neighbour_on_open_end(std::size_t m) {
  const BigInt a = BigInt(3) << m;
  return Poly{-1, 1} * Poly(std::vector<BigInt>{-(a + BigInt(1)), a});
}

TEST(Refine, MatchesDirectHighPrecisionRun) {
  Prng rng(2026);
  const auto input = paper_input(14, rng);
  const auto lo = solve_at(input.poly, 8);
  const auto hi = solve_at(input.poly, 120);
  expect_same_report(refine_to(lo, 120), hi.report, "paper_input(14)");
}

TEST(Refine, IdentityWhenPrecisionUnchanged) {
  const Poly p{-2, 0, 1};
  const auto run = solve_at(p, 30);
  EXPECT_EQ(refine_to(run, 30).roots, run.report.roots);
}

TEST(Refine, ExactRootStaysExact) {
  // Root exactly 3: cell at mu=4 is k = 48; refining to mu=10 gives 3072.
  const Poly p = poly_from_integer_roots({3, 7});
  const RootReport up = refine_to(p, cells_at({BigInt(3) << 4}, 4), 10);
  EXPECT_EQ(up.roots, std::vector<BigInt>{BigInt(3) << 10});
  // An exact cell costs no evaluation.
  EXPECT_EQ(up.stats.intervals_solved, 0u);
  EXPECT_EQ(up.stats.newton_evals, 0u);
}

TEST(Refine, ValidateChecksTheRaisedReport) {
  // The stored report misses the root 7: each cell refines, and only the
  // Sturm cross-check of RootFinderConfig::validate sees the gap.
  const Poly p = poly_from_integer_roots({3, 7});
  const RootReport partial = cells_at({BigInt(3) << 4}, 4);
  EXPECT_THROW(refine_to(p, partial, 10, 1, true), InternalError);
  const RootReport whole = cells_at({BigInt(3) << 4, BigInt(7) << 4}, 4);
  EXPECT_EQ(refine_to(p, whole, 10, 1, true).roots,
            (std::vector<BigInt>{BigInt(3) << 10, BigInt(7) << 10}));
}

TEST(Refine, SqrtTwoProgressively) {
  const Poly p{-2, 0, 1};
  RootReport rep = solve_at(p, 4).report;
  for (std::size_t mu : {16u, 64u, 256u}) {
    rep = refine_to(p, rep, mu);
    ASSERT_EQ(rep.mu, mu);
    const BigInt& k = rep.roots[1];
    // (k-1)^2 < 2 * 2^(2mu) <= k^2.
    EXPECT_LT((k - BigInt(1)) * (k - BigInt(1)), BigInt(2) << (2 * mu));
    EXPECT_GE(k * k, BigInt(2) << (2 * mu));
  }
}

TEST(Refine, RejectsBadArguments) {
  const Poly p{-2, 0, 1};
  const RootReport at10 = solve_at(p, 10).report;
  EXPECT_THROW(refine_to(p, at10, 5), InvalidArgument);
  EXPECT_THROW(refine_to(Poly{3}, cells_at({BigInt(1)}, 5), 10),
               InvalidArgument);
  // A cell with no root: no sign change.
  EXPECT_THROW(refine_to(p, cells_at({BigInt(100) << 4}, 4), 10),
               InvalidArgument);
  // (64x-1)(64x-3): roots 1/64 and 3/64 share the cell (0, 1/4] at mu 2.
  const Poly shared = Poly::parse("4096x^2 - 256x + 3");
  const auto run = solve_at(shared, 2);
  ASSERT_EQ(run.report.roots.size(), 2u);
  ASSERT_EQ(run.report.roots[0], run.report.roots[1]);
  EXPECT_THROW(refine_to(run, 40), InvalidArgument);
}

TEST(Refine, AdjacentRootOnCellBoundary) {
  // At mu = 12 the roots 1 and 1 + 1/(3 2^12) have the cells (1 - 2^-12, 1]
  // (exact) and (1, 1 + 2^-12], whose excluded left end is the first root.
  const Poly p = neighbour_on_open_end(12);
  const auto run = solve_at(p, 12);
  ASSERT_EQ(run.report.roots,
            (std::vector<BigInt>{BigInt(4096), BigInt(4097)}));
  expect_same_report(refine_to(run, 40), solve_at(p, 40).report,
                     "neighbour on the open end");
}

TEST(Refine, DegenerateWidthReturnsImmediately) {
  // mu_to == mu_from is the identity, and for exact cells and linear
  // inputs it costs no evaluation.
  const Poly p = poly_from_integer_roots({3, 7});
  const RootReport cells = cells_at({BigInt(3) << 4, BigInt(7) << 4}, 4);
  const RootReport same = refine_to(p, cells, 4);
  EXPECT_EQ(same.roots, cells.roots);
  EXPECT_EQ(same.stats.newton_evals, 0u);
  const Poly lin{-3, 2};  // root 3/2
  EXPECT_EQ(refine_to(lin, cells_at({BigInt(24)}, 4), 4).roots,
            std::vector<BigInt>{BigInt(24)});
}

TEST(Refine, DegreeOneSolvesByCeilingDivision) {
  const Poly lin{-3, 2};  // root 3/2: ceil(2^4 * 1.5) = 24
  EXPECT_EQ(refine_to(lin, cells_at({BigInt(24)}, 4), 10).roots,
            std::vector<BigInt>{BigInt(3) << 9});
  // Negative root and a non-dyadic value: 2x + 3, root -3/2.
  const Poly neg{3, 2};
  EXPECT_EQ(refine_to(neg, cells_at({BigInt(-24)}, 4), 10).roots,
            std::vector<BigInt>{BigInt(-3) << 9});
  // A cell that does not contain the root is rejected, same as degree>=2.
  EXPECT_THROW(refine_to(lin, cells_at({BigInt(25)}, 4), 10),
               InvalidArgument);
  EXPECT_THROW(refine_to(lin, cells_at({BigInt(0)}, 4), 10), InvalidArgument);
}

/// The differential suite's inputs for one mu_from: random draws and the
/// classic families, plus two shaped at mu_from -- every cell exact, and a
/// neighbouring root on a cell's open left end.
std::vector<std::pair<std::string, Poly>> draws(std::size_t mu_from,
                                                Prng& rng) {
  const auto deg = [&](int lo, int hi) {
    return static_cast<int>(rng.range(lo, hi));
  };
  std::vector<long long> with_zero{0};
  while (with_zero.size() < 6) {
    const long long r = rng.range(-20, 20);
    if (std::find(with_zero.begin(), with_zero.end(), r) == with_zero.end()) {
      with_zero.push_back(r);
    }
  }
  const int gap = static_cast<int>(mu_from);
  return {
      {"paper_input", paper_input(static_cast<std::size_t>(deg(4, 24)), rng)
                          .poly},
      {"jacobi",
       random_jacobi_poly(static_cast<std::size_t>(deg(4, 24)), 6, rng)},
      {"wilkinson(12)", wilkinson(12)},
      {"chebyshev_t", chebyshev_t(deg(3, 16))},
      {"laguerre", laguerre_scaled(deg(3, 12))},
      {"integer roots with 0", poly_from_integer_roots(with_zero)},
      {"clustered at gap mu_from", clustered_squarefree(5, gap, 1, rng)},
      {"neighbour on open end", neighbour_on_open_end(mu_from)},
      {"random_squarefree", random_squarefree_poly(deg(3, 16), 8, rng)},
      {"mignotte", mignotte(deg(5, 12), rng.range(3, 20))},
      {"repeated", Poly{-2, 0, 1} * Poly{-2, 0, 1} *
                       poly_from_integer_roots({-1, 3, 3, 3})},
  };
}

bool shares_a_cell(const RootReport& r) {
  return std::adjacent_find(r.roots.begin(), r.roots.end()) != r.roots.end();
}

// The gate on the one refinement engine outside the tree: every stored
// report, raised at P = 1, 2, 4, equals a cold solve at the target
// precision, or is rejected exactly when two stored roots share a cell;
// RootService answers the same request by a refined hit or, for a shared
// cell, by a counted fallback to a cold solve.
TEST(RefineParallel, MatchesColdSolves) {
  const FinderStrategy strategies[] = {FinderStrategy::kPaper,
                                       FinderStrategy::kRadii};
  Prng rng(24);
  int raised = 0;
  int rejected = 0;
  for (std::size_t mu_from : {0u, 1u, 3u, 20u, 53u}) {
    for (const auto& [name, p] : draws(mu_from, rng)) {
      for (FinderStrategy strategy : strategies) {
        const auto stored = solve_at(p, mu_from, strategy);
        const bool shared = shares_a_cell(stored.report);
        (shared ? rejected : raised) += 1;
        for (std::size_t mu_to : {mu_from + 1, std::size_t{107},
                                  std::size_t{256}}) {
          const std::string where =
              name + " " + finder_strategy_name(strategy) + " mu " +
              std::to_string(mu_from) + " -> " + std::to_string(mu_to);
          const RootReport cold = solve_at(p, mu_to, strategy).report;
          for (int threads : {1, 2, 4}) {
            const std::string at = where + " P" + std::to_string(threads);
            if (shared) {
              EXPECT_THROW(refine_to(stored, mu_to, threads), InvalidArgument)
                  << at;
            } else {
              expect_same_report(refine_to(stored, mu_to, threads), cold, at);
            }
            service::ServiceConfig scfg;
            scfg.parallel.num_threads = threads;
            service::RootService service(scfg);
            ASSERT_TRUE(service.solve(p, mu_from, strategy).ok) << at;
            const auto up = service.solve(p, mu_to, strategy);
            ASSERT_TRUE(up.ok) << at << ": " << up.error;
            EXPECT_EQ(up.outcome, shared ? service::CacheOutcome::kMiss
                                         : service::CacheOutcome::kHitRefined)
                << at;
            EXPECT_EQ(service.stats().refine_fallbacks, shared ? 1u : 0u)
                << at;
            expect_same_report(up.report, cold, at + " service");
          }
        }
      }
    }
  }
  // Both outcomes occur: the draws are not all separated at mu_from.
  EXPECT_GT(raised, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace pr
