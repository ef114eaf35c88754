// Repeated roots (Section 2.3): the remainder sequence's gcd(p, p') seeds
// the squarefree reduction, multiplicities come from the factors' signs
// at each cell's ends, and every stage-1 shape hands the same gcd over.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_driver.hpp"
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "isolate/isolate.hpp"
#include "layer_replay.hpp"
#include "poly/remainder_sequence.hpp"
#include "poly/squarefree.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

struct Named {
  std::string name;
  Poly poly;
};

/// Products of Jacobi factors with multiplicities 1-4, integer-root
/// products, and an input with content 6.
std::vector<Named> repeated_inputs() {
  std::vector<Named> out;
  Prng rng(2024);
  const Poly j6 = random_jacobi_poly(6, 9, rng);
  const Poly j5 = random_jacobi_poly(5, 9, rng);
  const Poly j4 = random_jacobi_poly(4, 9, rng);
  const Poly j3 = random_jacobi_poly(3, 9, rng);
  out.push_back({"jacobi-6^2 x jacobi-5", j6 * j6 * j5});
  out.push_back({"jacobi-6 x jacobi-5^2 x jacobi-4^3 x jacobi-3^4",
                 j6 * j5 * j5 * j4 * j4 * j4 * j3 * j3 * j3 * j3});
  out.push_back({"jacobi-4^4", j4 * j4 * j4 * j4});
  out.push_back({"(x+7)(x+3)^2 x (x-2)^3 (x-5)^4 (x-9)",
                 poly_from_integer_roots({-7, -3, -3, 0, 2, 2, 2, 5, 5, 5, 5,
                                          9})});
  out.push_back({"(x-1)^2", poly_from_integer_roots({1, 1})});
  out.push_back({"6 (x-1)^3 (x+2) (3x-1)^2",
                 Poly{6} * poly_from_integer_roots({1, 1, 1, -2}) *
                     Poly{-1, 3} * Poly{-1, 3}});
  return out;
}

void expect_same_factors(const std::vector<SquarefreeFactor>& want,
                         const std::vector<SquarefreeFactor>& got,
                         const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(want[k].factor, got[k].factor) << where << " factor " << k;
    EXPECT_EQ(want[k].multiplicity, got[k].multiplicity)
        << where << " factor " << k;
  }
}

// F_{n*} of the remainder sequence is gcd(p, p'), and the decomposition
// seeded with it is the one-argument decomposition.
TEST(RepeatedRoots, StageOneGcdSeedsTheDecomposition) {
  for (const auto& in : repeated_inputs()) {
    const Poly a = in.poly.primitive_part();
    const Poly g = poly_gcd(a, a.derivative());
    ASSERT_GT(g.degree(), 0) << in.name;
    // The sequence of the input itself, content and all.
    const RemainderSequence rs = compute_remainder_sequence(in.poly);
    ASSERT_TRUE(rs.extended()) << in.name;
    EXPECT_EQ(rs.gcd_part, g) << in.name;
    const SquarefreeReduction sf = squarefree_reduce(a, rs.gcd_part);
    expect_same_factors(squarefree_decompose(in.poly), sf.factors, in.name);
    EXPECT_EQ(sf.part, squarefree_part(in.poly)) << in.name;
    EXPECT_EQ(sf.part.degree(), rs.nstar) << in.name;
  }
}

TEST(RepeatedRoots, SquarefreeInputReducesToItself) {
  const Poly a = poly_from_integer_roots({-2, 1, 4});
  const SquarefreeReduction sf = squarefree_reduce(a, Poly{1});
  EXPECT_EQ(sf.part, a);
  ASSERT_EQ(sf.factors.size(), 1u);
  EXPECT_EQ(sf.factors[0].factor, a);
  EXPECT_EQ(sf.factors[0].multiplicity, 1u);
  EXPECT_THROW(squarefree_reduce(a, Poly{}), InvalidArgument);
  EXPECT_THROW(squarefree_reduce(Poly{3}, Poly{1}), InvalidArgument);
}

/// The roots find_real_roots reports for p at mu, and p's factors.
struct Cells {
  std::vector<BigInt> roots;
  std::vector<SquarefreeFactor> factors;
};

Cells cells_of(const Poly& p, std::size_t mu) {
  RootFinderConfig cfg;
  cfg.mu_bits = mu;
  return {find_real_roots(p, cfg).roots, squarefree_decompose(p)};
}

void expect_matches_reference(const Cells& c, std::size_t mu,
                              const std::string& where) {
  EXPECT_EQ(test::sturm_count_multiplicities(c.roots, mu, c.factors),
            detail::assign_multiplicities(c.roots, mu, c.factors))
      << where;
}

// The cell-end sign rule gives the Sturm-count multiplicities.
TEST(RepeatedRoots, MultiplicitiesMatchSturmCountReference) {
  // A shared cell: 1/1024 and 3/1024 both have ceil(2^8 x) = 1.
  {
    const Poly p = Poly{-1, 1024} * Poly{-3, 1024} * Poly{-5, 1} * Poly{-5, 1};
    const Cells c = cells_of(p, 8);
    ASSERT_EQ(c.roots.size(), 3u);
    ASSERT_EQ(c.roots[0], c.roots[1]);
    expect_matches_reference(c, 8, "shared cell");
    EXPECT_EQ(detail::assign_multiplicities(c.roots, 8, c.factors),
              (std::vector<unsigned>{1, 1, 2}));
  }
  // A shared cell whose two roots have different multiplicities: the
  // counts are consumed in factor order.
  {
    const Poly p = Poly{-1, 1024} * Poly{-1, 1024} * Poly{-3, 1024};
    const Cells c = cells_of(p, 8);
    ASSERT_EQ(c.roots.size(), 2u);
    ASSERT_EQ(c.roots[0], c.roots[1]);
    expect_matches_reference(c, 8, "shared cell, mixed multiplicities");
  }
  // 1/2 sits exactly on its cell's right end hi at every mu >= 1.
  for (std::size_t mu = 1; mu <= 8; ++mu) {
    const Poly p = Poly{-1, 2} * Poly{-1, 2} * Poly{-3, 1};
    const Cells c = cells_of(p, mu);
    ASSERT_EQ(c.roots.size(), 2u);
    EXPECT_EQ(c.roots[0], BigInt::pow2(mu - 1)) << "mu=" << mu;
    expect_matches_reference(c, mu, "right end, mu=" + std::to_string(mu));
    EXPECT_EQ(detail::assign_multiplicities(c.roots, mu, c.factors),
              (std::vector<unsigned>{2, 1}))
        << "mu=" << mu;
  }
  // 1/2 is the left end lo of 3/5's cell at mu 1-3, so the factor 2x-1
  // vanishes there and its sign is taken just right of lo.
  for (std::size_t mu = 1; mu <= 3; ++mu) {
    const Poly p = Poly{-1, 2} * Poly{-1, 2} * Poly{-3, 5};
    const Cells c = cells_of(p, mu);
    ASSERT_EQ(c.roots.size(), 2u);
    EXPECT_EQ(c.roots[1] - BigInt(1), BigInt::pow2(mu - 1)) << "mu=" << mu;
    expect_matches_reference(c, mu, "left end, mu=" + std::to_string(mu));
    EXPECT_EQ(detail::assign_multiplicities(c.roots, mu, c.factors),
              (std::vector<unsigned>{2, 1}))
        << "mu=" << mu;
  }
  // Multiplicities up to 4, Jacobi factors and complex roots.
  const Poly c2 = Poly{1, 0, 1};
  std::vector<Named> more = repeated_inputs();
  more.push_back({"(x^2+1)^2 (x-1)^3 (x+2) (3x-1)^2",
                  c2 * c2 * poly_from_integer_roots({1, 1, 1, -2}) *
                      Poly{-1, 3} * Poly{-1, 3}});
  for (const auto& in : more) {
    for (std::size_t mu : {2u, 16u, 53u, 140u}) {
      const Cells c = cells_of(in.poly, mu);
      expect_matches_reference(c, mu, in.name + " mu=" + std::to_string(mu));
    }
  }
}

// A cell list that is not a correct report leaves the sign test without
// exactly one owner; the cell then falls back to the Sturm counts, as the
// reference always counts.
TEST(RepeatedRoots, CellsTheSignsCannotDecideUseSturmCounts) {
  const Poly a = Poly{-1, 2} * Poly{-3, 4};  // 1/2 and 3/4
  const Poly b = Poly{-5, 1};
  struct Case {
    const char* name;
    std::vector<BigInt> roots;
    std::vector<SquarefreeFactor> factors;
  };
  const Case cases[] = {
      // (1, 2] holds no root: no factor changes sign.
      {"empty cell", {BigInt(1), BigInt(2), BigInt(5)}, {{a, 1}, {b, 2}}},
      // (0, 1] holds both roots of one factor: it keeps its sign.
      {"two roots of one factor", {BigInt(1), BigInt(5)}, {{a, 1}, {b, 2}}},
      // (0, 1] holds a root of each of two factors: both change sign.
      {"roots of two factors",
       {BigInt(1)},
       {{Poly{-1, 2}, 1}, {Poly{-3, 4}, 2}}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(test::sturm_count_multiplicities(c.roots, 0, c.factors),
              detail::assign_multiplicities(c.roots, 0, c.factors))
        << c.name;
  }
}

// One repeated-root input at P 1/2/4 in every stage-1 shape: the
// multimodular engine declining to its publish task's exact sequence,
// the three task grains of the exact recurrence, and the one-task stage.
TEST(RepeatedRoots, EveryStageOneShapeMatchesLayerReplay) {
  Prng rng(31);
  const Poly j6 = random_jacobi_poly(6, 9, rng);
  const Poly p = j6 * j6 * random_jacobi_poly(18, 9, rng);
  const Poly part = squarefree_part(p);
  ASSERT_EQ(part.degree(), 24);
  struct Shape {
    const char* name;
    bool modular;
    RemainderGrain grain;
    bool sequential;
  };
  const Shape shapes[] = {
      {"modular", true, RemainderGrain::kPerCoefficient, false},
      {"per-iteration", false, RemainderGrain::kPerIteration, false},
      {"per-coefficient", false, RemainderGrain::kPerCoefficient, false},
      {"per-operation", false, RemainderGrain::kPerOperation, false},
      {"sequential stage 1", false, RemainderGrain::kPerCoefficient, true},
  };
  for (const Shape& s : shapes) {
    RootFinderConfig cfg;
    cfg.mu_bits = 53;
    cfg.modular.enabled = s.modular;
    const RootReport ref = test::replay_layers(p, cfg);
    ASSERT_TRUE(ref.squarefree_reduced);
    for (int threads : {1, 2, 4}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      pc.grain = s.grain;
      pc.sequential_remainder = s.sequential;
      const std::string where =
          std::string(s.name) + " threads=" + std::to_string(threads);
      instr::reset_modular();
      const ParallelRunResult run = find_real_roots_parallel(p, cfg, pc);
      test::expect_same_report(ref, run.report, where);
      EXPECT_EQ(run.isolated, part) << where;
      EXPECT_FALSE(run.used_sequential_fallback) << where;
      if (s.modular) {
        // The engine declined at the vanishing remainder.
        EXPECT_GE(instr::modular_counts().fallbacks, 1u) << where;
      }
    }
  }
}

/// Multiplications `work` performs, over every thread.
template <class Work>
std::uint64_t mults_of(const Work& work) {
  instr::reset_all();
  work();
  return instr::aggregate().total().mul_count;
}

// The radii path tests squarefreeness with one gcd and reduces with that
// same gcd: over its squarefree part, a repeated-root input costs that
// gcd, squarefree_reduce and the larger content computation, and no
// second or third gcd.
TEST(RepeatedRoots, RadiiPrepareComputesTheGcdOnce) {
  const Poly p = Poly{6} * repeated_inputs()[1].poly;
  const Poly a = p.primitive_part();
  const Poly part = squarefree_part(a);
  RootFinderConfig cfg;
  cfg.strategy = FinderStrategy::kRadii;
  const auto prepare = [&](const Poly& q) {
    return mults_of([&] { (void)isolate::prepare_isolation(q, cfg); });
  };
  Poly g;
  const std::uint64_t reduce_cost =
      mults_of([&] { (void)p.primitive_part(); }) +
      mults_of([&] { g = poly_gcd(a, a.derivative()); }) +
      mults_of([&] { (void)squarefree_reduce(a, g); });
  const std::uint64_t part_test_cost =
      mults_of([&] { (void)part.primitive_part(); }) +
      mults_of([&] { (void)poly_gcd(part, part.derivative()); });
  EXPECT_EQ(prepare(p) - prepare(part), reduce_cost - part_test_cost);
  EXPECT_TRUE(isolate::prepare_isolation(p, cfg).reduced);
}

// kPaper's fallback runs the general-input path from whatever stage 1
// left: after the graph gives up -- the same arithmetic as a solve with
// the fallback disabled, which throws there -- it costs what a kRadii
// solve costs after the primitive part, minus the gcd and the reduction
// when stage 1 already made them.  So each route computes gcd(p, p') once.
TEST(RepeatedRoots, PaperFallbackComputesTheGcdOnce) {
  const Poly c2{1, 0, 1};
  const Poly s2{-2, 0, 1};
  Prng rng(17);
  struct Case {
    const char* name;
    Poly poly;
    bool modular;
    bool sequential;
    bool stage1_reduces;  // the reduction comes before the non-real test
  };
  const Case cases[] = {
      // The per-level exact chain meets a c_t of the wrong sign before
      // F_{n*+1} vanishes, so the general path tests and reduces.
      {"exact chain (x^2-2)^2 (x-3) (x^2+1)",
       s2 * s2 * Poly{-3, 1} * c2, false, false, false},
      // One-task stage 1 and the modular publish check the whole
      // sequence for a vanishing remainder first: the graph reruns on the
      // squarefree part, which is the one the fallback isolates.
      {"sequential stage 1 (x^2-2)^2 (x-3) (x^2+1)",
       s2 * s2 * Poly{-3, 1} * c2, false, true, true},
      {"modular (x^2-2)^2 (x^2+1) jacobi-22",
       s2 * s2 * c2 * random_jacobi_poly(22, 9, rng), true, false, true},
  };
  for (const Case& c : cases) {
    RootFinderConfig cfg;
    cfg.mu_bits = 53;
    cfg.modular.enabled = c.modular;
    ParallelConfig pc;
    pc.sequential_remainder = c.sequential;
    const Poly a = c.poly.primitive_part();
    Poly g;
    const std::uint64_t gcd_cost =
        mults_of([&] { g = poly_gcd(a, a.derivative()); });
    const std::uint64_t reduce_cost =
        mults_of([&] { (void)squarefree_reduce(a, g); });
    ASSERT_GT(g.degree(), 0) << c.name;

    RootReport report;
    const std::uint64_t paper = mults_of(
        [&] { report = find_real_roots_parallel(c.poly, cfg, pc).report; });
    ASSERT_TRUE(report.used_sturm_fallback) << c.name;
    ASSERT_TRUE(report.squarefree_reduced) << c.name;
    RootFinderConfig strict = cfg;
    strict.allow_sturm_fallback = false;
    const std::uint64_t tree = mults_of([&] {
      EXPECT_THROW(find_real_roots_parallel(c.poly, strict, pc),
                   NonNormalSequence)
          << c.name;
    });
    RootFinderConfig radii = cfg;
    radii.strategy = FinderStrategy::kRadii;
    const std::uint64_t general =
        mults_of([&] { (void)find_real_roots_parallel(c.poly, radii, pc); }) -
        mults_of([&] { (void)c.poly.primitive_part(); });
    const std::uint64_t taken_by_stage1 =
        c.stage1_reduces ? gcd_cost + reduce_cost : 0;
    EXPECT_EQ(paper - tree, general - taken_by_stage1) << c.name;
  }
}

// What a repeated-root input costs over its squarefree part: the exact
// sequence the modular publish task reruns (4,784 multiplications), the
// CRT work of the declined engine, Musser's loop from the stage-1 gcd and
// the multiplicities.  Recomputing the gcd twice and building a Sturm
// chain per factor would add about 100,000 more.
TEST(RepeatedRoots, ReducedSolveCountsPinned) {
  Prng rng(5);
  const Poly sq = random_jacobi_poly(8, 9, rng);
  const Poly full = sq * sq * random_jacobi_poly(40, 9, rng);
  const Poly part = squarefree_part(full);
  ASSERT_EQ(part.degree(), 48);
  RootFinderConfig cfg;
  cfg.mu_bits = 53;
  cfg.modular.enabled = true;
  for (int threads : {1, 4}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    const auto mults = [&](const Poly& q) {
      return mults_of([&] { (void)find_real_roots_parallel(q, cfg, pc); });
    };
    const std::uint64_t solve_full = mults(full);
    const std::uint64_t solve_part = mults(part);
    EXPECT_EQ(solve_full - solve_part, 10012u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace pr
