#include "poly/sturm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/classic_polys.hpp"
#include "instr/counters.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

TEST(Sturm, CountsDistinctRealRoots) {
  EXPECT_EQ(SturmChain(poly_from_integer_roots({-3, -1, 0, 2, 7}))
                .distinct_real_roots(),
            5);
  // x^2 + 1: no real roots.
  EXPECT_EQ(SturmChain(Poly{1, 0, 1}).distinct_real_roots(), 0);
  // x^3 - x: three real roots.
  EXPECT_EQ(SturmChain(Poly{0, -1, 0, 1}).distinct_real_roots(), 3);
  // (x^2+1)(x-1): one real root.
  EXPECT_EQ(SturmChain(Poly{1, 0, 1} * Poly{-1, 1}).distinct_real_roots(), 1);
}

TEST(Sturm, RepeatedRootsCountOnce) {
  const Poly p = poly_from_integer_roots({1, 1, 2, 2, 2});
  EXPECT_EQ(SturmChain(p).distinct_real_roots(), 2);
}

TEST(Sturm, HalfOpenSemanticsAtExactRoots) {
  const SturmChain sc(poly_from_integer_roots({-3, -1, 0, 2, 7}));
  // (a, b] includes b, excludes a.
  EXPECT_EQ(sc.count_half_open(BigInt(-3), BigInt(7), 0), 4);
  EXPECT_EQ(sc.count_half_open(BigInt(-4), BigInt(7), 0), 5);
  EXPECT_EQ(sc.count_half_open(BigInt(-4), BigInt(6), 0), 4);
  EXPECT_EQ(sc.count_half_open(BigInt(0), BigInt(0), 0), 0);
  EXPECT_EQ(sc.count_half_open(BigInt(-1), BigInt(0), 0), 1);
}

TEST(Sturm, CountBelowIsStrict) {
  const SturmChain sc(poly_from_integer_roots({-3, -1, 0, 2, 7}));
  EXPECT_EQ(sc.count_below(BigInt(0), 0), 2);
  EXPECT_EQ(sc.count_below(BigInt(1), 0), 3);
  EXPECT_EQ(sc.count_below(BigInt(-3), 0), 0);
  EXPECT_EQ(sc.count_below(BigInt(100), 0), 5);
}

TEST(Sturm, ScaledQueries) {
  // roots +-1/2 of 4x^2 - 1.
  const SturmChain sc(Poly{-1, 0, 4});
  EXPECT_EQ(sc.count_half_open(BigInt(-2), BigInt(2), 1), 2);   // (-1, 1]
  // (-1/2, 1/2]: excludes the root at -1/2, includes the one at +1/2.
  EXPECT_EQ(sc.count_half_open(BigInt(-1), BigInt(1), 1), 1);
  EXPECT_EQ(sc.count_half_open(BigInt(0), BigInt(1), 1), 1);
  EXPECT_EQ(sc.count_below(BigInt(1), 1), 1);   // strictly below 1/2
  EXPECT_EQ(sc.count_below(BigInt(2), 1), 2);
}

TEST(Sturm, OneSidedSignLimits) {
  const Poly p{-1, 0, 4};  // roots +-1/2
  EXPECT_GT(sign_right_limit(p, BigInt(1), 1), 0);
  EXPECT_LT(sign_left_limit(p, BigInt(1), 1), 0);
  EXPECT_LT(sign_right_limit(p, BigInt(-1), 1), 0);
  EXPECT_GT(sign_left_limit(p, BigInt(-1), 1), 0);
  // Non-root points: both limits equal the sign.
  EXPECT_EQ(sign_right_limit(p, BigInt(0), 0), -1);
  EXPECT_EQ(sign_left_limit(p, BigInt(0), 0), -1);
}

TEST(Sturm, SignLimitsAtRepeatedRoot) {
  // (x-1)^2: touches zero, same sign on both sides.
  const Poly p = poly_from_integer_roots({1, 1});
  EXPECT_GT(sign_right_limit(p, BigInt(1), 0), 0);
  EXPECT_GT(sign_left_limit(p, BigInt(1), 0), 0);
  // (x-1)^3: genuine sign change.
  const Poly q = poly_from_integer_roots({1, 1, 1});
  EXPECT_GT(sign_right_limit(q, BigInt(1), 0), 0);
  EXPECT_LT(sign_left_limit(q, BigInt(1), 0), 0);
}

TEST(Sturm, NonzeroSignLimitAllocatesNoMoreThanOneEvaluation) {
  // Multi-limb coefficients: a copy of p before the first evaluation
  // would allocate one limb buffer per coefficient.
  const BigInt big = BigInt::pow2(300) + BigInt(12345);
  const Poly p({big, -big, BigInt(0), big * BigInt(3), -big});
  const BigInt a(777);
  const std::size_t w = 7;
  ASSERT_NE(p.sign_at_scaled(a, w), 0);  // also warms the thread's scratch
  const auto allocs = [] { return instr::thread_counts().total().alloc_count; };
  const auto before = allocs();
  (void)p.sign_at_scaled(a, w);
  const auto one_eval = allocs() - before;
  const auto mid = allocs();
  const int right = sign_right_limit(p, a, w);
  EXPECT_LE(allocs() - mid, one_eval);
  const auto mid2 = allocs();
  const int left = sign_left_limit(p, a, w);
  EXPECT_LE(allocs() - mid2, one_eval);
  EXPECT_EQ(right, p.sign_at_scaled(a, w));
  EXPECT_EQ(left, right);
}

TEST(Sturm, VariationsAtInfinities) {
  const SturmChain sc(poly_from_integer_roots({-1, 1}));
  EXPECT_EQ(sc.variations_at_neg_inf() - sc.variations_at_pos_inf(), 2);
}

TEST(Sturm, WilkinsonCounts) {
  const Poly p = wilkinson(15);
  const SturmChain sc(p);
  EXPECT_EQ(sc.distinct_real_roots(), 15);
  EXPECT_EQ(sc.count_half_open(BigInt(0), BigInt(15), 0), 15);
  EXPECT_EQ(sc.count_half_open(BigInt(5), BigInt(10), 0), 5);
  EXPECT_EQ(sc.count_below(BigInt(8), 0), 7);
}

TEST(Sturm, ChebyshevRootsAllInUnitInterval) {
  for (int n : {3, 8, 13}) {
    const SturmChain sc(chebyshev_t(n));
    EXPECT_EQ(sc.distinct_real_roots(), n);
    EXPECT_EQ(sc.count_half_open(BigInt(-1), BigInt(1), 0), n);
  }
}

TEST(Sturm, RandomizedCrossCheckWithKnownRoots) {
  Prng rng(99);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<long long> roots;
    const int k = 2 + static_cast<int>(rng.below(6));
    for (int i = 0; i < k; ++i) roots.push_back(rng.range(-40, 40));
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    const SturmChain sc(poly_from_integer_roots(roots));
    EXPECT_EQ(sc.distinct_real_roots(), static_cast<int>(roots.size()));
    // Count in a random half-open window and compare with ground truth.
    const long long a = rng.range(-50, 50);
    const long long b = a + static_cast<long long>(rng.below(100));
    int expected = 0;
    for (long long r : roots) expected += (r > a && r <= b);
    EXPECT_EQ(sc.count_half_open(BigInt(a), BigInt(b), 0), expected)
        << "window (" << a << ", " << b << "]";
  }
}

}  // namespace
}  // namespace pr
