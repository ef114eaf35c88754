#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/root_finder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "poly/squarefree.hpp"
#include "poly/sturm.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

TEST(Gen, PolyFromIntegerRoots) {
  EXPECT_EQ(poly_from_integer_roots({}), (Poly{1}));
  EXPECT_EQ(poly_from_integer_roots({2}), (Poly{-2, 1}));
  EXPECT_EQ(poly_from_integer_roots({1, -1}), (Poly{-1, 0, 1}));
}

TEST(Gen, WilkinsonBasics) {
  EXPECT_EQ(wilkinson(1), (Poly{-1, 1}));
  EXPECT_EQ(wilkinson(2), (Poly{2, -3, 1}));
  const Poly w10 = wilkinson(10);
  EXPECT_EQ(w10.degree(), 10);
  for (long long r = 1; r <= 10; ++r) {
    EXPECT_EQ(w10.eval(BigInt(r)).signum(), 0);
  }
  EXPECT_THROW(wilkinson(0), InvalidArgument);
}

TEST(Gen, ChebyshevRecurrencesAndValues) {
  EXPECT_EQ(chebyshev_t(0), (Poly{1}));
  EXPECT_EQ(chebyshev_t(1), (Poly{0, 1}));
  EXPECT_EQ(chebyshev_t(2), (Poly{-1, 0, 2}));
  EXPECT_EQ(chebyshev_t(3), (Poly{0, -3, 0, 4}));
  EXPECT_EQ(chebyshev_u(2), (Poly{-1, 0, 4}));
  // T_n(1) = 1 for all n.
  for (int n : {4, 9, 15}) {
    EXPECT_EQ(chebyshev_t(n).eval(BigInt(1)).to_int64(), 1);
    EXPECT_EQ(SturmChain(chebyshev_t(n)).distinct_real_roots(), n);
    EXPECT_EQ(SturmChain(chebyshev_u(n)).distinct_real_roots(), n);
  }
}

TEST(Gen, LegendreScaled) {
  EXPECT_EQ(legendre_scaled(0), (Poly{1}));
  EXPECT_EQ(legendre_scaled(1), (Poly{0, 1}));
  // R_2 = 3x*x - 1 = (3x^2 - 1) ~ 2! P_2 = 3x^2 - 1. P_2 = (3x^2-1)/2.
  EXPECT_EQ(legendre_scaled(2), (Poly{-1, 0, 3}));
  for (int n : {5, 8, 12}) {
    const Poly p = legendre_scaled(n);
    EXPECT_EQ(p.degree(), n);
    EXPECT_EQ(SturmChain(p).distinct_real_roots(), n);
    // All roots in (-1, 1).
    EXPECT_EQ(SturmChain(p).count_half_open(BigInt(-1), BigInt(1), 0), n);
  }
}

TEST(Gen, Hermite) {
  EXPECT_EQ(hermite(0), (Poly{1}));
  EXPECT_EQ(hermite(1), (Poly{0, 2}));
  EXPECT_EQ(hermite(2), (Poly{-2, 0, 4}));
  EXPECT_EQ(hermite(3), (Poly{0, -12, 0, 8}));
  for (int n : {6, 11}) {
    EXPECT_EQ(SturmChain(hermite(n)).distinct_real_roots(), n);
  }
}

TEST(Gen, ClusteredRationalRoots) {
  Prng rng(17);
  const Poly p = clustered_rational_roots(6, 32, 4, rng);
  EXPECT_EQ(p.degree(), 6);
  EXPECT_EQ(SturmChain(p).distinct_real_roots(), 6);
  EXPECT_EQ(squarefree_part(p).degree(), 6) << "roots must be distinct";
  EXPECT_THROW(clustered_rational_roots(0, 4, 4, rng), InvalidArgument);
}

TEST(Gen, RandomSymmetricMatrices) {
  Prng rng(23);
  const IntMatrix a = random_symmetric_matrix(9, -3, 3, rng);
  EXPECT_TRUE(a.is_symmetric());
  bool in_range = true;
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      in_range &= a.at(i, j) >= BigInt(-3) && a.at(i, j) <= BigInt(3);
    }
  }
  EXPECT_TRUE(in_range);
  const IntMatrix b = random_01_symmetric_matrix(7, rng);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_TRUE(b.at(i, j).is_zero() || b.at(i, j).is_one());
    }
  }
}

TEST(Gen, PaperInputProperties) {
  Prng rng(29);
  for (std::size_t n : {5u, 12u, 20u}) {
    const auto input = paper_input(n, rng);
    EXPECT_EQ(input.poly.degree(), static_cast<int>(n));
    EXPECT_TRUE(input.poly.leading().is_one());
    EXPECT_EQ(input.m_bits, input.poly.max_coeff_bits());
    // All eigenvalues real (symmetric matrix).
    const Poly sf = squarefree_part(input.poly);
    EXPECT_EQ(SturmChain(sf).distinct_real_roots(), sf.degree());
  }
}

TEST(Gen, LaguerreScaled) {
  EXPECT_EQ(laguerre_scaled(0), (Poly{1}));
  EXPECT_EQ(laguerre_scaled(1), (Poly{1, -1}));
  // R_2 = (3-x)(1-x) - 1 = x^2 - 4x + 2 (= 2! L_2).
  EXPECT_EQ(laguerre_scaled(2), (Poly{2, -4, 1}));
  for (int n : {5, 9, 14}) {
    const Poly p = laguerre_scaled(n);
    EXPECT_EQ(p.degree(), n);
    const SturmChain sc(p);
    EXPECT_EQ(sc.distinct_real_roots(), n);
    // All roots strictly positive.
    EXPECT_EQ(sc.count_below(BigInt(0), 0), 0);
  }
}

TEST(Gen, TridiagonalCharpolyMatchesDense) {
  // Build the same Jacobi matrix densely and compare char polys.
  Prng rng(414);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 3 + rng.below(8);
    std::vector<BigInt> diag, off;
    IntMatrix dense(n);
    for (std::size_t i = 0; i < n; ++i) {
      diag.emplace_back(rng.range(-5, 5));
      dense.at(i, i) = diag.back();
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      off.emplace_back(rng.range(1, 5));
      dense.at(i, i + 1) = off.back();
      dense.at(i + 1, i) = off.back();
    }
    EXPECT_EQ(charpoly_tridiagonal(diag, off), charpoly_berkowitz(dense));
  }
}

TEST(Gen, JacobiPolysAreSquarefreeWithSimpleRealRoots) {
  Prng rng(415);
  for (std::size_t n : {8u, 20u, 50u}) {
    const Poly p = random_jacobi_poly(n, 9, rng);
    EXPECT_EQ(p.degree(), static_cast<int>(n));
    EXPECT_EQ(squarefree_part(p).degree(), static_cast<int>(n))
        << "non-zero off-diagonals force simple eigenvalues";
    EXPECT_EQ(SturmChain(p).distinct_real_roots(), static_cast<int>(n));
  }
}

TEST(Gen, JacobiEnablesLargeDegrees) {
  // n = 150 generates in well under a second via the O(n^2) recurrence.
  Prng rng(416);
  const Poly p = random_jacobi_poly(150, 3, rng);
  EXPECT_EQ(p.degree(), 150);
  EXPECT_TRUE(p.leading().is_one());
}

TEST(Gen, PaperInputIsDeterministicPerSeed) {
  Prng a(1234), b(1234);
  EXPECT_EQ(paper_input(10, a).poly, paper_input(10, b).poly);
  Prng c(1234), d(1235);
  EXPECT_FALSE(paper_input(10, c).poly == paper_input(10, d).poly);
}

// --- hard / general square-free workloads (gen/hard_polys) ------------------

TEST(Gen, MignotteShapeAndSquarefreeness) {
  // x^n - 2 a^2 x^2 + 4 a x - 2, Eisenstein at 2 (hence squarefree).
  EXPECT_EQ(mignotte(5, 3), (Poly{-2, 12, -18, 0, 0, 1}));
  for (int n : {3, 8, 13}) {
    const Poly p = mignotte(n, 4);
    EXPECT_EQ(p.degree(), n);
    EXPECT_EQ(poly_gcd(p, p.derivative()).degree(), 0);
  }
  for (int n : {8, 13}) {
    // Beyond the cubic, most roots are complex: strictly fewer real
    // roots than the degree (n = 3 has all three real).
    EXPECT_LT(SturmChain(mignotte(n, 4)).distinct_real_roots(), n);
  }
  EXPECT_THROW(mignotte(2, 3), InvalidArgument);
  EXPECT_THROW(mignotte(5, 1), InvalidArgument);
}

TEST(Gen, ClusteredSquarefreeIsSeedReproducibleAndAllReal) {
  Prng a(77), b(77), c(78);
  const Poly pa = clustered_squarefree(7, 10, -2, a);
  EXPECT_EQ(pa, clustered_squarefree(7, 10, -2, b));
  EXPECT_FALSE(pa == clustered_squarefree(7, 10, -2, c));
  EXPECT_EQ(pa.degree(), 7);
  EXPECT_EQ(poly_gcd(pa, pa.derivative()).degree(), 0);
  EXPECT_EQ(SturmChain(pa).distinct_real_roots(), 7);
}

TEST(Gen, RandomSquarefreePolyProperties) {
  Prng a(91), b(91);
  for (int degree : {1, 4, 11}) {
    const Poly p = random_squarefree_poly(degree, 16, a);
    EXPECT_EQ(p.degree(), degree);
    EXPECT_EQ(poly_gcd(p, p.derivative()).degree(), 0);
    EXPECT_EQ(p, random_squarefree_poly(degree, 16, b));
  }
  Prng rng(92);
  EXPECT_THROW(random_squarefree_poly(0, 16, rng), InvalidArgument);
  EXPECT_THROW(random_squarefree_poly(4, 0, rng), InvalidArgument);
}

TEST(Gen, PaperPathRejectsGeneralInputsWithClearDiagnostic) {
  // The generators deliberately produce inputs outside the paper
  // algorithm's all-real-roots domain; without the fallback the
  // finder must say so, not return a wrong answer.  Mignotte's sparsity
  // breaks the normal-sequence assumption before the real-root count is
  // even consulted; a dense complex-rooted input reaches that check.
  RootFinderConfig strict;
  strict.allow_sturm_fallback = false;
  try {
    find_real_roots(mignotte(9, 3), strict);
    FAIL() << "expected NonNormalSequence";
  } catch (const NonNormalSequence& e) {
    EXPECT_NE(std::string(e.what()).find("not normal"), std::string::npos);
  }
  try {
    find_real_roots(Poly{5, -1, 0, 1}, strict);  // x^3 - x + 5
    FAIL() << "expected NonNormalSequence";
  } catch (const NonNormalSequence& e) {
    EXPECT_NE(std::string(e.what()).find("non-real"), std::string::npos);
  }
}

}  // namespace
}  // namespace pr
