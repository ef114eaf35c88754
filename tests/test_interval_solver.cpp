#include "core/interval_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/scaled_point.hpp"
#include "core/tree_builder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "isolate/descartes_isolate.hpp"
#include "layer_replay.hpp"
#include "poly/bounds.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

/// Brute-force oracle: ceil(2^mu x) for the unique root x of p in
/// (lo/2^mu, hi/2^mu), found by sign bisection at very high precision.
BigInt oracle(const Poly& p, const BigInt& lo, const BigInt& hi, int s_lo,
              std::size_t mu) {
  const std::size_t w = mu + 64;
  BigInt a = lo << 64, b = hi << 64;
  while (b - a > BigInt(1)) {
    BigInt mid = a + ((b - a) >> 1);
    const int s = p.sign_at_scaled(mid, w);
    if (s == 0) return ceil_shift(mid, 64);
    if (s == s_lo) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return ceil_shift(b, 64);
}

struct Case {
  Poly p;
  BigInt lo, hi;  // unit interval at scale 0 with a sign change
  int s_lo, s_hi;
};

/// Scans [-bound, bound] for unit intervals with a sign change; `bound`
/// must cover all roots of p.
std::vector<Case> integer_bracket_cases(const Poly& p, long long bound) {
  std::vector<Case> out;
  for (long long t = -bound; t < bound; ++t) {
    const int s1 = p.sign_at(BigInt(t));
    const int s2 = p.sign_at(BigInt(t + 1));
    if (s1 * s2 < 0) out.push_back({p, BigInt(t), BigInt(t + 1), s1, s2});
  }
  return out;
}

class SolverModes : public ::testing::TestWithParam<
                        IntervalSolverConfig::Mode> {};

TEST_P(SolverModes, AgreesWithOracleOnCharPolyRoots) {
  // Exact evaluation, and the precision ladder (certified probes) alike.
  Prng rng(5);
  IntervalSolverConfig cfg;
  cfg.mode = GetParam();
  for (int trial = 0; trial < 3; ++trial) {
    const auto input = paper_input(8 + 3 * trial, rng);
    for (const std::size_t mu : {4u, 17u, 64u}) {
      for (const auto& c : integer_bracket_cases(input.poly, 64)) {
        const BigInt want = oracle(c.p, c.lo << mu, c.hi << mu, c.s_lo, mu);
        for (const bool certified : {false, true}) {
          IntervalStats st;
          const BigInt got = solve_isolated_interval(
              c.p, c.lo << mu, c.hi << mu, c.s_lo, c.s_hi, mu, cfg, &st,
              certified);
          EXPECT_EQ(got, want) << "certified " << certified;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SolverModes,
    ::testing::Values(IntervalSolverConfig::Mode::kHybrid,
                      IntervalSolverConfig::Mode::kBisectionNewton,
                      IntervalSolverConfig::Mode::kPureBisection),
    [](const auto& param_info) {
      switch (param_info.param) {
        case IntervalSolverConfig::Mode::kHybrid: return "Hybrid";
        case IntervalSolverConfig::Mode::kBisectionNewton:
          return "BisectNewton";
        default: return "PureBisection";
      }
    });

TEST(IntervalSolver, SingleCandidateNeedsNoEvaluation) {
  IntervalStats st;
  IntervalSolverConfig cfg;
  // (lo, hi) with hi = lo+1: the only possible answer is hi.
  const Poly p{-1, 0, 2};  // sqrt(1/2) ~ 0.707, between 0 and 1 at mu=0
  const BigInt got =
      solve_isolated_interval(p, BigInt(0), BigInt(1), -1, 1, 0, cfg, &st);
  EXPECT_EQ(got.to_int64(), 1);
  EXPECT_EQ(st.total_evals(), 0u);
}

TEST(IntervalSolver, ExactDyadicRootDetected) {
  // Root exactly 1/2 inside (0, 1) at mu = 4: answer ceil(16 * 0.5) = 8.
  const Poly p{-1, 2};
  IntervalStats st;
  IntervalSolverConfig cfg;
  const BigInt got = solve_isolated_interval(p, BigInt(0), BigInt(16), -1, 1,
                                             4, cfg, &st);
  EXPECT_EQ(got.to_int64(), 8);
}

TEST(IntervalSolver, RootJustAboveGridPoint) {
  // root = (2^20 + 1) / 2^25: 2^5 x = 1 + 2^-20, so k = ceil(2^5 x) = 2.
  const Poly p{-(1LL << 20) - 1, 1LL << 25};
  IntervalStats st;
  IntervalSolverConfig cfg;
  const BigInt got =
      solve_isolated_interval(p, BigInt(0), BigInt(2), -1, 1, 5, cfg, &st);
  EXPECT_EQ(got.to_int64(), 2);
}

TEST(IntervalSolver, RootJustBelowGridPoint) {
  // root = (2^20 - 1) / 2^25 at mu = 5: still k = 1.
  const Poly p{-(1LL << 20) + 1, 1LL << 25};
  IntervalStats st;
  IntervalSolverConfig cfg;
  const BigInt got =
      solve_isolated_interval(p, BigInt(0), BigInt(2), -1, 1, 5, cfg, &st);
  EXPECT_EQ(got.to_int64(), 1);
}

TEST(IntervalSolver, DecreasingPolynomial) {
  // -x + 1 root at 1 within (0, 2), s_lo = +, s_hi = -.
  const Poly p{1, -1};
  IntervalStats st;
  IntervalSolverConfig cfg;
  const BigInt got = solve_isolated_interval(p, BigInt(0) << 3, BigInt(2) << 3,
                                             1, -1, 3, cfg, &st);
  EXPECT_EQ(got.to_int64(), 8);
}

TEST(IntervalSolver, HugePrecision) {
  // sqrt(2) to 300 bits: verify the square of the result brackets 2.
  const Poly p{-2, 0, 1};
  const std::size_t mu = 300;
  IntervalStats st;
  IntervalSolverConfig cfg;
  const BigInt got = solve_isolated_interval(p, BigInt(1) << mu,
                                             BigInt(2) << mu, -1, 1, mu, cfg,
                                             &st);
  // (got-1)^2 < 2*2^(2mu) <= got^2.
  EXPECT_LT((got - BigInt(1)) * (got - BigInt(1)), BigInt(2) << (2 * mu));
  EXPECT_GE(got * got, BigInt(2) << (2 * mu));
}

TEST(IntervalSolver, HybridBeatsPureBisectionOnEvaluations) {
  const Poly p = wilkinson(12).derivative();  // 11 non-integer real roots
  const std::size_t mu = 120;
  std::uint64_t evals[2];
  int idx = 0;
  for (auto mode : {IntervalSolverConfig::Mode::kHybrid,
                    IntervalSolverConfig::Mode::kPureBisection}) {
    IntervalSolverConfig cfg;
    cfg.mode = mode;
    IntervalStats st;
    for (const auto& c : integer_bracket_cases(p, 16)) {
      solve_isolated_interval(c.p, c.lo << mu, c.hi << mu, c.s_lo, c.s_hi,
                              mu, cfg, &st);
    }
    evals[idx++] = st.total_evals();
  }
  EXPECT_LT(evals[0], evals[1])
      << "hybrid must evaluate less than pure bisection at high precision";
}

TEST(IntervalSolver, SieveShinesWhenRootHugsAnEndpoint) {
  // The double-exponential sieve exists for the worst case where the root
  // sits pathologically close to one end of a huge isolating interval
  // (paper Sec 2.2 / Eq. 38).  Root at 1/2^40 inside (0, 2^20).
  const Poly p{-1, 1LL << 40};  // root 2^-40
  const std::size_t mu = 60;
  const BigInt lo(0);
  const BigInt hi = BigInt(1) << (20 + mu);
  std::uint64_t evals_hybrid = 0, evals_nosieve = 0;
  for (const bool sieve : {true, false}) {
    IntervalSolverConfig cfg;
    cfg.mode = sieve ? IntervalSolverConfig::Mode::kHybrid
                     : IntervalSolverConfig::Mode::kBisectionNewton;
    IntervalStats st;
    const BigInt got =
        solve_isolated_interval(p, lo, hi, -1, 1, mu, cfg, &st);
    EXPECT_EQ(got, BigInt(1) << 20);  // ceil(2^60 * 2^-40)
    (sieve ? evals_hybrid : evals_nosieve) = st.total_evals();
  }
  // Bisection alone needs ~60 halvings to get from width 2^20 down to the
  // root's 2^-40 neighbourhood; the sieve jumps there double-
  // exponentially.
  EXPECT_LT(evals_hybrid + 15, evals_nosieve)
      << "hybrid=" << evals_hybrid << " nosieve=" << evals_nosieve;
}

TEST(IntervalSolver, GuardBitsExtremes) {
  const Poly p{-2, 0, 1};
  for (std::size_t guard : {0u, 1u, 100u}) {
    IntervalSolverConfig cfg;
    cfg.guard_bits = guard;
    IntervalStats st;
    const BigInt got = solve_isolated_interval(
        p, BigInt(1) << 20, BigInt(2) << 20, -1, 1, 20, cfg, &st);
    // ceil(2^20 sqrt(2)) = 1482911.
    EXPECT_EQ(got.to_int64(), 1482911) << "guard=" << guard;
  }
}

TEST(IntervalSolver, EvaluationsRespectWorstCaseBound) {
  // Eq. (38): I(X, d) ~ 0.5 log^2 X + log(10 d^2) + O(log X) evaluations
  // per interval in the worst case.  Check the hybrid never exceeds a
  // generous constant multiple of that bound across a sweep.
  Prng rng(424242);
  for (int trial = 0; trial < 4; ++trial) {
    const auto input = paper_input(8 + 4 * trial, rng);
    const std::size_t mu = 100;
    IntervalSolverConfig cfg;
    const double d = input.poly.degree();
    const double x = static_cast<double>(root_bound_pow2(input.poly) + mu);
    const double bound_per_interval =
        0.5 * std::log2(x) * std::log2(x) + std::log2(10 * d * d) +
        8 * std::log2(x) + 20;
    for (const auto& c : integer_bracket_cases(input.poly, 64)) {
      IntervalStats st;
      (void)solve_isolated_interval(c.p, c.lo << mu, c.hi << mu, c.s_lo,
                                    c.s_hi, mu, cfg, &st);
      EXPECT_LE(static_cast<double>(st.total_evals()), bound_per_interval)
          << "n=" << input.poly.degree();
    }
  }
}

TEST(IntervalSolver, RejectsBadArguments) {
  IntervalSolverConfig cfg;
  const Poly p{-1, 0, 2};
  EXPECT_THROW(solve_isolated_interval(p, BigInt(1), BigInt(0), -1, 1, 0,
                                       cfg, nullptr),
               InvalidArgument);
  EXPECT_THROW(solve_isolated_interval(p, BigInt(0), BigInt(1), 1, 1, 0,
                                       cfg, nullptr),
               InvalidArgument);
  EXPECT_THROW(solve_isolated_interval(p, BigInt(0), BigInt(1), 0, -1, 0,
                                       cfg, nullptr),
               InvalidArgument);
}

void expect_same_stats(const IntervalStats& want, const IntervalStats& got,
                       const std::string& where) {
  EXPECT_EQ(want.sieve_evals, got.sieve_evals) << where;
  EXPECT_EQ(want.bisect_evals, got.bisect_evals) << where;
  EXPECT_EQ(want.newton_iters, got.newton_iters) << where;
  EXPECT_EQ(want.newton_evals, got.newton_evals) << where;
  EXPECT_EQ(want.fallback_bisects, got.fallback_bisects) << where;
  EXPECT_EQ(want.intervals_solved, got.intervals_solved) << where;
  EXPECT_EQ(want.case1, got.case1) << where;
  EXPECT_EQ(want.case2a, got.case2a) << where;
  EXPECT_EQ(want.case2b, got.case2b) << where;
  EXPECT_EQ(want.case2c, got.case2c) << where;
}

/// An interval problem at scale mu: (lo, hi) / 2^mu holds one root of p.
struct Problem {
  const Poly* p;
  BigInt lo, hi;
  int s_lo, s_hi;
  std::size_t mu;
};

/// Up to `limit` of `all`, evenly spread and ending with the last.
std::vector<Problem> spread(std::vector<Problem> all, std::size_t limit) {
  if (all.size() <= limit) return all;
  std::vector<Problem> out;
  for (std::size_t k = limit; k-- > 0;) {
    out.push_back(std::move(all[all.size() - 1 - k * all.size() / limit]));
  }
  return out;
}

/// v / 2^from at scale `to`, rounded up.
BigInt at_scale(const BigInt& v, std::size_t from, std::size_t to) {
  return to >= from ? v << (to - from) : ceil_shift(v, from - to);
}

/// The interleaving tree of `input` at mu 53, as the pipeline builds it
/// with modular arithmetic on.
Tree replay_tree53(const Poly& input) {
  modular::ModularConfig mod;
  mod.enabled = true;
  const Poly work = input.primitive_part();
  std::optional<RemainderSequence> rs =
      modular::compute_remainder_sequence_multimodular(work, mod);
  if (!rs) rs = compute_remainder_sequence(work);
  Tree tree(work.degree());
  test::replay_tree(tree, *rs, 53, BigInt::pow2(root_bound_pow2(work) + 53),
                    IntervalSolverConfig{}, nullptr, &mod);
  return tree;
}

/// The tree's interval problems at scale mu: for every node of degree >=
/// 2, each cell between consecutive interleaving points (the merged child
/// roots, padded with the root bound) that holds exactly one of the
/// node's roots.  Below mu 53 the points are ceil(2^mu y), as the
/// pipeline's; above it the mu-53 points, exactly.  A node root r =
/// ceil(2^53 x) lies in the cell (y, y') / 2^53 iff y < r <= y', when
/// p(y' / 2^53) != 0.
std::vector<Problem> tree_problems(const Tree& tree, const Poly& input,
                                   std::size_t mu) {
  const BigInt bound = BigInt::pow2(root_bound_pow2(input.primitive_part()) +
                                    53);
  std::vector<Problem> out;
  for (int idx : tree.postorder()) {
    const TreeNode& nd = tree.node(idx);
    if (nd.empty() || nd.poly.degree() < 2) continue;
    std::vector<BigInt> ys = merge_child_roots(tree, idx);
    ys.insert(ys.begin(), -bound);
    ys.push_back(bound);
    for (std::size_t i = 0; i + 1 < ys.size(); ++i) {
      BigInt lo = at_scale(ys[i], 53, mu);
      BigInt hi = at_scale(ys[i + 1], 53, mu);
      const BigInt lo53 = at_scale(lo, mu, 53);
      const BigInt hi53 = at_scale(hi, mu, 53);
      const auto inside = std::count_if(
          nd.roots.begin(), nd.roots.end(),
          [&](const BigInt& r) { return lo53 < r && r <= hi53; });
      const int s_lo = nd.poly.sign_at_scaled(lo, mu);
      const int s_hi = nd.poly.sign_at_scaled(hi, mu);
      if (inside != 1 || s_lo * s_hi != -1 || lo + BigInt(1) == hi) continue;
      out.push_back({&nd.poly, std::move(lo), std::move(hi), s_lo, s_hi, mu});
    }
  }
  return out;
}

TEST(IntervalSolver, CertifiedNewtonMatchesExact) {
  // With certified probes, Newton takes p(x) and p'(x) from the precision
  // ladder and its step from their bounds; the answer and every
  // IntervalStats field must be the exact evaluation's.  The problems are
  // the tree's cells of Jacobi-64/96/128 and Berkowitz-64 inputs,
  // Wilkinson-20 (integer roots, which iterates land on), a product of
  // dyadic factors (likewise) and roots 2^-40 apart, and the isolator's
  // cells of Mignotte polynomials.  Cells are sampled: fewer at high mu,
  // where the exact side is slow.
  Prng rng(27);
  Poly dyadic{1};
  for (int i = 0; i < 9; ++i) {
    const long long b = 2 * static_cast<long long>(rng.below(1000)) + 1;
    dyadic *= Poly{-b, 1LL << (3 * i)};
  }
  const std::vector<std::pair<std::string, Poly>> inputs = {
      {"jacobi-64", random_jacobi_poly(64, 9, rng)},
      {"jacobi-96", random_jacobi_poly(96, 9, rng)},
      {"jacobi-128", random_jacobi_poly(128, 9, rng)},
      {"berkowitz-64", paper_input(64, rng).poly},
      {"wilkinson-20", wilkinson(20)},
      {"dyadic", dyadic},
      {"clustered", clustered_squarefree(12, 40, 3, rng)},
  };
  const auto limit = [](std::size_t mu) -> std::size_t {
    return mu <= 53 ? 48 : mu <= 256 ? 16 : 4;
  };
  struct Entry {
    std::string name;
    std::size_t mu;
    std::vector<Problem> problems;
  };
  std::vector<Entry> corpus;
  std::vector<Tree> trees;
  trees.reserve(inputs.size());  // the problems point into the trees
  for (const auto& [name, poly] : inputs) {
    trees.push_back(replay_tree53(poly));
    for (const std::size_t mu : {0u, 4u, 53u, 256u, 1024u}) {
      corpus.push_back(
          {name, mu, spread(tree_problems(trees.back(), poly, mu), limit(mu))});
    }
  }
  const std::pair<int, long long> kMignotte[] = {{9, 3}, {16, 7}, {24, 20}};
  std::vector<isolate::IsolationOutput> isolations;
  for (const auto& [n, a] : kMignotte) {
    isolations.push_back(isolate::isolate_roots(mignotte(n, a)));
  }
  for (const std::size_t mu : {0u, 4u, 53u, 256u, 1024u}) {
    std::vector<Problem> cells;
    for (const auto& iso : isolations) {
      for (const auto& c : iso.cells) {
        if (c.exact) continue;
        const std::size_t w = std::max(c.scale, mu);
        cells.push_back({&iso.stripped, c.lo << (w - c.scale),
                         c.hi << (w - c.scale), c.s_lo, c.s_hi, w});
      }
    }
    corpus.push_back({"mignotte", mu, std::move(cells)});
  }

  IntervalStats total;
  std::size_t grid_roots = 0;
  for (const auto& [name, mu, problems] : corpus) {
    // Roots 2^-40 apart share one cell of the coarse scales.
    EXPECT_TRUE(!problems.empty() || mu < 53) << name << " mu " << mu;
    for (const Problem& c : problems) {
      for (const auto mode : {IntervalSolverConfig::Mode::kHybrid,
                              IntervalSolverConfig::Mode::kBisectionNewton}) {
        IntervalSolverConfig cfg;
        cfg.mode = mode;
        IntervalStats exact_st, cert_st;
        const BigInt want = solve_isolated_interval(
            *c.p, c.lo, c.hi, c.s_lo, c.s_hi, c.mu, cfg, &exact_st, false);
        const BigInt got = solve_isolated_interval(
            *c.p, c.lo, c.hi, c.s_lo, c.s_hi, c.mu, cfg, &cert_st, true);
        const std::string where = name + " mu " + std::to_string(mu) +
                                  ", degree " +
                                  std::to_string(c.p->degree()) + ", lo " +
                                  c.lo.to_hex() + ", mode " +
                                  std::to_string(static_cast<int>(mode));
        EXPECT_EQ(got, want) << where;
        expect_same_stats(exact_st, cert_st, where);
        total += cert_st;
        if (c.p->sign_at_scaled(want, c.mu) == 0) ++grid_roots;
      }
    }
  }
  EXPECT_GT(total.newton_iters, 1000u);
  EXPECT_GT(total.fallback_bisects, 0u);
  EXPECT_GT(grid_roots, 0u) << "no root on the output grid";
}

TEST(IntervalSolver, StatsAccumulate) {
  IntervalStats a, b;
  a.sieve_evals = 2;
  a.case2c = 1;
  b.sieve_evals = 3;
  b.newton_iters = 4;
  a += b;
  EXPECT_EQ(a.sieve_evals, 5u);
  EXPECT_EQ(a.newton_iters, 4u);
  EXPECT_EQ(a.case2c, 1u);
}

}  // namespace
}  // namespace pr
