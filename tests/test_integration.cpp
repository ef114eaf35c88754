// Cross-module end-to-end properties tying the whole pipeline to the
// paper's claims.
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/sturm_finder.hpp"
#include "core/parallel_driver.hpp"
#include "core/refine.hpp"
#include "core/root_finder.hpp"
#include "core/tree.hpp"
#include "core/tree_builder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "layer_replay.hpp"
#include "poly/bounds.hpp"
#include "poly/remainder_sequence.hpp"
#include "poly/sturm.hpp"
#include "rational/rational.hpp"
#include "sim/des.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

TEST(Integration, EveryTreeLevelRootsInterleaveUpward) {
  // After a full run, the merged child roots of every node interleave the
  // node's own roots: child[i] separates parent[i] and parent[i+1] up to
  // one grid cell (the mu-approximation slack).
  Prng rng(404);
  const auto input = paper_input(14, rng);
  const std::size_t mu = 40;
  const auto rs = compute_remainder_sequence(input.poly);
  Tree tree(input.poly.degree());
  const BigInt bound = BigInt::pow2(root_bound_pow2(input.poly) + mu);
  IntervalSolverConfig scfg;
  test::replay_tree(tree, rs, mu, bound, scfg, nullptr);
  for (const auto& nd : tree.nodes()) {
    if (nd.empty() || nd.length() < 2) continue;
    const auto& parent = nd.roots;
    std::vector<BigInt> child;
    for (int cidx : {nd.left, nd.right}) {
      const auto& r = tree.node(cidx).roots;
      child.insert(child.end(), r.begin(), r.end());
    }
    std::sort(child.begin(), child.end());
    ASSERT_EQ(child.size() + 1, parent.size());
    for (std::size_t i = 0; i < child.size(); ++i) {
      // y_i in [x_i, x_{i+1}] with everything rounded up to the grid:
      // allow one cell of slack on each side.
      EXPECT_LE(parent[i] - BigInt(1), child[i]);
      EXPECT_LE(child[i] - BigInt(1), parent[i + 1]);
    }
  }
}

TEST(Integration, TreeRootsAgreeWithSturmOracleEverywhere) {
  Prng rng(405);
  const auto input = paper_input(17, rng);
  const std::size_t mu = 24;
  const auto rs = compute_remainder_sequence(input.poly);
  Tree tree(input.poly.degree());
  const BigInt bound = BigInt::pow2(root_bound_pow2(input.poly) + mu);
  IntervalSolverConfig scfg;
  test::replay_tree(tree, rs, mu, bound, scfg, nullptr);
  // Not just the root node: every node's roots must be correct.
  IntervalSolverConfig cfg;
  for (const auto& nd : tree.nodes()) {
    if (nd.empty()) continue;
    const auto oracle = sturm_find_roots(nd.poly, mu, cfg, nullptr);
    EXPECT_EQ(nd.roots, oracle) << "node [" << nd.i << "," << nd.j << "]";
  }
}

TEST(Integration, SequentialParallelAndBaselineAllAgree) {
  Prng rng(406);
  for (int trial = 0; trial < 3; ++trial) {
    const auto input = paper_input(10 + 5 * trial, rng);
    const std::size_t mu = 53;
    RootFinderConfig cfg;
    cfg.mu_bits = mu;
    const auto ref = test::replay_layers(input.poly, cfg);
    const auto seq = find_real_roots(input.poly, cfg);
    ParallelConfig pc;
    pc.num_threads = 3;
    const auto par = find_real_roots_parallel(input.poly, cfg, pc);
    IntervalSolverConfig scfg;
    const auto base = sturm_find_roots(input.poly, mu, scfg, nullptr);
    test::expect_same_report(ref, seq, "find_real_roots");
    test::expect_same_report(ref, par.report, "find_real_roots_parallel");
    EXPECT_EQ(ref.roots, base);
  }
}

TEST(Integration, PhaseAccountingCoversAllArithmetic) {
  // During find_real_roots, (almost) every multiplication should be
  // attributed to a named phase -- "other" must be negligible.
  Prng rng(407);
  const auto input = paper_input(20, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 80;
  instr::reset_all();
  (void)find_real_roots(input.poly, cfg);
  const auto agg = instr::aggregate();
  const auto total = agg.total().mul_count;
  const auto other = agg[instr::Phase::kOther].mul_count;
  EXPECT_LT(other * 50, total)
      << "more than 2% of multiplications are unattributed";
}

TEST(Integration, MultiplicationsDominateBitCost) {
  // The paper's Section 4 assumption: "75 to 90 percent of the actual
  // running time is spent in multiplications".  Check the bit-cost share.
  Prng rng(408);
  const auto input = paper_input(24, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 107;
  instr::reset_all();
  (void)find_real_roots(input.poly, cfg);
  const auto t = instr::aggregate().total();
  const double mul_share =
      static_cast<double>(t.mul_bits) / static_cast<double>(t.bit_cost());
  EXPECT_GT(mul_share, 0.5);
}

TEST(Integration, SpeedupShapeMatchesPaperTables) {
  // Table 3-7 shape: near-linear speedup at small P, clearly sublinear by
  // P = 16 for moderate n with dispatch overhead.
  Prng rng(409);
  const auto input = paper_input(24, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 107;
  const auto run = find_real_roots_parallel(input.poly, cfg, ParallelConfig{});
  // Dispatch overhead ~ mean task cost / 5 (paper: grain chosen so
  // overheads stay small).
  const std::uint64_t overhead =
      run.trace.total_cost() / run.trace.size() / 5 + 1;
  const auto sp = simulate_speedups(run.trace, {1, 2, 4, 8, 16}, overhead);
  EXPECT_GT(sp[1], 1.6) << "2 processors";
  EXPECT_GT(sp[2], 2.8) << "4 processors";
  EXPECT_GT(sp[3], 4.0) << "8 processors";
  EXPECT_LT(sp[4], 14.0) << "16 processors must be visibly sublinear";
  EXPECT_GT(sp[4], sp[2]) << "...but still faster than 4";
}

TEST(Integration, TraceTaskCostsSumToMeasuredWork) {
  // The recorded per-task costs must cover essentially all arithmetic of
  // the parallel run.
  Prng rng(410);
  const auto input = paper_input(12, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 30;
  instr::reset_all();
  const auto run = find_real_roots_parallel(input.poly, cfg, ParallelConfig{});
  const auto measured = instr::aggregate().total().bit_cost();
  EXPECT_GT(run.trace.total_cost() * 100, measured * 95)
      << "tasks must account for >= 95% of the arithmetic";
}

TEST(Integration, RationalEnclosuresBracketRoots) {
  // Tie the rational module to the finder: for every reported cell, p
  // must be non-positive/non-negative appropriately at the exact rational
  // endpoints (sign change or endpoint zero), evaluated over Q.
  Prng rng(411);
  const auto input = paper_input(10, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 33;
  const auto rep = find_real_roots(input.poly, cfg);
  for (const auto& k : rep.roots) {
    const RationalInterval enc = root_enclosure(k, rep.mu);
    const Rational at_hi = eval_at_rational(input.poly, enc.hi);
    const Rational at_lo = eval_at_rational(input.poly, enc.lo);
    // Either an exact root at the closed end, or a sign change across the
    // cell (the cell may also contain two roots of the same sign at very
    // coarse mu -- not at 33 bits for this input).
    EXPECT_TRUE(at_hi.is_zero() || at_lo.is_zero() ||
                at_lo.signum() != at_hi.signum())
        << "cell " << k.to_decimal();
  }
}

TEST(Integration, SimulatorSerialMakespanEqualsTraceCost) {
  Prng rng(412);
  const auto input = paper_input(9, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 20;
  const auto run = find_real_roots_parallel(input.poly, cfg, ParallelConfig{});
  const auto r1 = simulate_schedule(run.trace, {1, 0});
  EXPECT_EQ(r1.makespan, run.trace.total_cost());
  // And the infinite-processor floor is the critical path.
  const auto rinf = simulate_schedule(run.trace, {1024, 0});
  EXPECT_EQ(rinf.makespan, run.trace.critical_path());
}

TEST(Integration, RefineAfterParallelRun) {
  Prng rng(413);
  const auto input = paper_input(11, rng);
  RootFinderConfig lo_cfg;
  lo_cfg.mu_bits = 6;
  ParallelConfig pc;
  pc.num_threads = 2;
  const auto run = find_real_roots_parallel(input.poly, lo_cfg, pc);
  RootFinderConfig hi_cfg;
  hi_cfg.mu_bits = 90;
  const auto direct = test::replay_layers(input.poly, hi_cfg);
  EXPECT_EQ(refine_roots(input.poly, run.report.roots, 6, 90),
            direct.roots);
}

TEST(Integration, WholePipelineOnAllClassicFamilies) {
  RootFinderConfig cfg;
  cfg.mu_bits = 50;
  cfg.validate = true;
  for (const Poly& p : {wilkinson(12), chebyshev_t(11), chebyshev_u(10),
                        legendre_scaled(12), hermite(9)}) {
    const auto rep = find_real_roots(p, cfg);
    EXPECT_EQ(static_cast<int>(rep.roots.size()), p.degree());
    EXPECT_TRUE(std::is_sorted(rep.roots.begin(), rep.roots.end()));
  }
}

}  // namespace
}  // namespace pr
