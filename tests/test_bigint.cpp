#include "bigint/bigint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

TEST(BigInt, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.negative());
  EXPECT_EQ(z.signum(), 0);
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_decimal(), "0");
  EXPECT_EQ(z.to_int64(), 0);
  EXPECT_TRUE(z.is_even());
  EXPECT_EQ((-z).signum(), 0) << "-0 must normalize to +0";
}

TEST(BigInt, SmallConstruction) {
  EXPECT_EQ(BigInt(42).to_decimal(), "42");
  EXPECT_EQ(BigInt(-42).to_decimal(), "-42");
  EXPECT_EQ(BigInt(42).signum(), 1);
  EXPECT_EQ(BigInt(-42).signum(), -1);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
}

TEST(BigInt, Int64Extremes) {
  const long long min64 = std::numeric_limits<long long>::min();
  const long long max64 = std::numeric_limits<long long>::max();
  EXPECT_EQ(BigInt(min64).to_int64(), min64);
  EXPECT_EQ(BigInt(max64).to_int64(), max64);
  EXPECT_EQ(BigInt(min64).to_decimal(), std::to_string(min64));
  BigInt beyond = BigInt(max64) + BigInt(1);
  EXPECT_FALSE(beyond.fits_int64());
  EXPECT_THROW(beyond.to_int64(), InvalidArgument);
  // -2^63 fits, -2^63 - 1 does not.
  BigInt negedge = BigInt(min64);
  EXPECT_TRUE(negedge.fits_int64());
  EXPECT_FALSE((negedge - BigInt(1)).fits_int64());
}

TEST(BigInt, DecimalRoundTrip) {
  const char* cases[] = {
      "0",
      "1",
      "-1",
      "999999999999999999",
      "1000000000000000000000000000000000000001",
      "-123456789012345678901234567890123456789012345678901234567890",
  };
  for (const char* s : cases) {
    EXPECT_EQ(BigInt::from_decimal(s).to_decimal(), s) << s;
  }
}

TEST(BigInt, FromDecimalRejectsGarbage) {
  EXPECT_THROW(BigInt::from_decimal(""), InvalidArgument);
  EXPECT_THROW(BigInt::from_decimal("-"), InvalidArgument);
  EXPECT_THROW(BigInt::from_decimal("12a3"), InvalidArgument);
  EXPECT_THROW(BigInt::from_decimal(" 1"), InvalidArgument);
}

TEST(BigInt, FromDecimalAcceptsSignsAndZeros) {
  EXPECT_EQ(BigInt::from_decimal("+17").to_int64(), 17);
  EXPECT_EQ(BigInt::from_decimal("-0").signum(), 0);
  EXPECT_EQ(BigInt::from_decimal("007").to_int64(), 7);
}

TEST(BigInt, Pow2) {
  EXPECT_EQ(BigInt::pow2(0).to_int64(), 1);
  EXPECT_EQ(BigInt::pow2(10).to_int64(), 1024);
  EXPECT_EQ(BigInt::pow2(64).to_hex(), "0x10000000000000000");
  EXPECT_EQ(BigInt::pow2(100).bit_length(), 101u);
}

TEST(BigInt, AdditionCarryChains) {
  // Force carries across limb boundaries.
  BigInt a = BigInt::pow2(64) - BigInt(1);
  EXPECT_EQ((a + BigInt(1)).to_hex(), "0x10000000000000000");
  BigInt b = BigInt::pow2(256) - BigInt(1);
  EXPECT_EQ(((b + BigInt(1)) - BigInt::pow2(256)).signum(), 0);
}

TEST(BigInt, SignedArithmetic) {
  EXPECT_EQ((BigInt(7) + BigInt(-10)).to_int64(), -3);
  EXPECT_EQ((BigInt(-7) + BigInt(10)).to_int64(), 3);
  EXPECT_EQ((BigInt(-7) - BigInt(-10)).to_int64(), 3);
  EXPECT_EQ((BigInt(-7) * BigInt(-6)).to_int64(), 42);
  EXPECT_EQ((BigInt(7) * BigInt(-6)).to_int64(), -42);
  EXPECT_EQ((BigInt(0) * BigInt(-6)).signum(), 0);
}

TEST(BigInt, TruncatedDivisionSemantics) {
  // C++-style: quotient rounds toward zero, remainder keeps dividend sign.
  auto qr = [](long long a, long long b) {
    BigInt q, r;
    BigInt::divmod(BigInt(a), BigInt(b), q, r);
    return std::pair<long long, long long>(q.to_int64(), r.to_int64());
  };
  EXPECT_EQ(qr(7, 2), std::pair(3LL, 1LL));
  EXPECT_EQ(qr(-7, 2), std::pair(-3LL, -1LL));
  EXPECT_EQ(qr(7, -2), std::pair(-3LL, 1LL));
  EXPECT_EQ(qr(-7, -2), std::pair(3LL, -1LL));
}

TEST(BigInt, FloorAndCeilDivision) {
  EXPECT_EQ(BigInt::fdiv(BigInt(7), BigInt(2)).to_int64(), 3);
  EXPECT_EQ(BigInt::fdiv(BigInt(-7), BigInt(2)).to_int64(), -4);
  EXPECT_EQ(BigInt::cdiv(BigInt(7), BigInt(2)).to_int64(), 4);
  EXPECT_EQ(BigInt::cdiv(BigInt(-7), BigInt(2)).to_int64(), -3);
  EXPECT_EQ(BigInt::cdiv(BigInt(8), BigInt(2)).to_int64(), 4);
  EXPECT_EQ(BigInt::fdiv(BigInt(8), BigInt(2)).to_int64(), 4);
  // Negative divisor.
  EXPECT_EQ(BigInt::fdiv(BigInt(7), BigInt(-2)).to_int64(), -4);
  EXPECT_EQ(BigInt::cdiv(BigInt(7), BigInt(-2)).to_int64(), -3);
}

TEST(BigInt, DivisionByZeroThrows) {
  BigInt q, r;
  EXPECT_THROW(BigInt::divmod(BigInt(1), BigInt(0), q, r), DivisionByZero);
  EXPECT_THROW(BigInt(1) / BigInt(0), DivisionByZero);
  EXPECT_THROW(BigInt(1) % BigInt(0), DivisionByZero);
}

TEST(BigInt, DivexactEnforcesExactness) {
  EXPECT_EQ(BigInt::divexact(BigInt(42), BigInt(-7)).to_int64(), -6);
  EXPECT_THROW(BigInt::divexact(BigInt(43), BigInt(7)), InternalError);
}

TEST(BigInt, KnuthDNormalizationEdge) {
  // Divisor with high bit set in its top limb (no normalization shift) and
  // a case requiring the "add back" correction path (qhat one too large).
  BigInt a = (BigInt::pow2(128) - BigInt(1)) * BigInt::pow2(64);
  BigInt b = BigInt::pow2(128) - BigInt(1);
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ(q, BigInt::pow2(64));
  EXPECT_TRUE(r.is_zero());

  // Classic add-back trigger: u = base^2 * (base/2), v = base/2 * base + 1.
  BigInt base = BigInt::pow2(64);
  BigInt u = base * base * BigInt::pow2(63);
  BigInt v = BigInt::pow2(63) * base + BigInt(1);
  BigInt::divmod(u, v, q, r);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(BigInt::cmp_abs(r, v), 0);
}

TEST(BigInt, Shifts) {
  EXPECT_EQ((BigInt(1) << 130).bit_length(), 131u);
  EXPECT_EQ((BigInt(5) << 3).to_int64(), 40);
  EXPECT_EQ((BigInt(40) >> 3).to_int64(), 5);
  EXPECT_EQ((BigInt(41) >> 3).to_int64(), 5);
  EXPECT_EQ((BigInt(-41) >> 3).to_int64(), -5) << "magnitude shift";
  EXPECT_EQ(((BigInt(1) << 200) >> 200).to_int64(), 1);
  EXPECT_EQ((BigInt(7) >> 10).signum(), 0);
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt::pow2(64), BigInt::pow2(63));
  EXPECT_LT(-BigInt::pow2(64), -BigInt::pow2(63));
  EXPECT_EQ(BigInt(17), BigInt::from_decimal("17"));
  EXPECT_EQ(BigInt::cmp_abs(BigInt(-9), BigInt(5)), 1);
  EXPECT_EQ(BigInt::cmp_abs(BigInt(-9), BigInt(-9)), 0);
}

TEST(BigInt, GcdAndPow) {
  EXPECT_EQ(gcd(BigInt(12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(gcd(BigInt(-12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(gcd(BigInt(0), BigInt(-7)).to_int64(), 7);
  EXPECT_EQ(gcd(BigInt(0), BigInt(0)).signum(), 0);
  EXPECT_EQ(pow(BigInt(3), 0).to_int64(), 1);
  EXPECT_EQ(pow(BigInt(3), 7).to_int64(), 2187);
  EXPECT_EQ(pow(BigInt(-2), 11).to_int64(), -2048);
  EXPECT_EQ(pow(BigInt(2), 100), BigInt::pow2(100));
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(12345).to_double(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).to_double(), -12345.0);
  EXPECT_NEAR(BigInt::pow2(70).to_double(), std::pow(2.0, 70), 1e4);
}

TEST(BigInt, HexFormatting) {
  EXPECT_EQ(BigInt(0).to_hex(), "0x0");
  EXPECT_EQ(BigInt(31).to_hex(), "0x1f");
  EXPECT_EQ(BigInt(-31).to_hex(), "-0x1f");
  EXPECT_EQ((BigInt::pow2(64) + BigInt(1)).to_hex(), "0x10000000000000001");
}

TEST(BigInt, UserLiteral) {
  EXPECT_EQ("123456789123456789123456789"_bi.to_decimal(),
            "123456789123456789123456789");
}

/// Randomized algebraic laws over mixed-size operands.
TEST(BigInt, RandomizedAlgebraicLaws) {
  Prng rng(20240707);
  auto random_value = [&](int max_limbs) {
    BigInt v;
    const int limbs = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(max_limbs)));
    for (int i = 0; i < limbs; ++i) {
      v <<= 64;
      v += BigInt(static_cast<unsigned long long>(rng.next()));
    }
    if (rng.coin()) v = -v;
    if (rng.below(16) == 0) v = BigInt(0);
    return v;
  };
  for (int iter = 0; iter < 300; ++iter) {
    const BigInt a = random_value(8);
    const BigInt b = random_value(8);
    const BigInt c = random_value(4);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - b, -(b - a));
    if (!c.is_zero()) {
      BigInt q, r;
      BigInt::divmod(a, c, q, r);
      EXPECT_EQ(q * c + r, a);
      EXPECT_LT(BigInt::cmp_abs(r, c), 0);
      if (!r.is_zero()) {
        EXPECT_EQ(r.signum(), a.signum());
      }
      EXPECT_EQ(BigInt::divexact(a * c, c), a);
    }
    const std::size_t k = rng.below(130);
    EXPECT_EQ((a << k) >> k, a);
  }
}

TEST(BigInt, DecimalRoundTripFuzz) {
  Prng rng(515151);
  for (int iter = 0; iter < 100; ++iter) {
    BigInt v;
    const int limbs = 1 + static_cast<int>(rng.below(10));
    for (int i = 0; i < limbs; ++i) {
      v <<= 64;
      v += BigInt(static_cast<unsigned long long>(rng.next()));
    }
    if (rng.coin()) v = -v;
    EXPECT_EQ(BigInt::from_decimal(v.to_decimal()), v);
  }
}

TEST(BigInt, DivisionStressAgainstReconstruction) {
  // Dividend/divisor patterns that exercise qhat over/under-estimation:
  // long runs of 1-bits and near-power-of-two divisors.
  Prng rng(626262);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t abits = 65 + rng.below(700);
    const std::size_t bbits = 64 + rng.below(abits - 64);
    BigInt a = BigInt::pow2(abits) - BigInt(1);      // all ones
    BigInt b = BigInt::pow2(bbits) - BigInt(static_cast<long long>(
                                          1 + rng.below(3)));
    if (rng.coin()) a -= BigInt(static_cast<long long>(rng.below(1000)));
    if (rng.coin()) a = -a;
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(BigInt::cmp_abs(r, b), 0);
  }
}

TEST(BigInt, KaratsubaMatchesSchoolbook) {
  Prng rng(7);
  auto random_wide = [&](int limbs) {
    BigInt v;
    for (int i = 0; i < limbs; ++i) {
      v <<= 64;
      v += BigInt(static_cast<unsigned long long>(rng.next()));
    }
    return rng.coin() ? -v : v;
  };
  const auto check = [](const BigInt& a, const BigInt& b) {
    BigInt::set_karatsuba_enabled(false);
    const BigInt school = a * b;
    BigInt::set_karatsuba_enabled(true);
    const BigInt kara = a * b;
    BigInt::set_karatsuba_enabled(false);
    EXPECT_EQ(school, kara) << a.limb_count() << " x " << b.limb_count()
                            << " limbs";
  };
  for (int iter = 0; iter < 20; ++iter) {
    const BigInt a = random_wide(30 + static_cast<int>(rng.below(40)));
    const BigInt b = random_wide(25 + static_cast<int>(rng.below(40)));
    check(a, b);
  }
  // Shapes around kKaratsubaThreshold (24 limbs): just below it, one
  // recursion level (24..47), two (48..95) and three (96..), and pairs
  // more unbalanced than 3:1, where the shorter operand has no high half.
  static_assert(BigInt::kKaratsubaThreshold == 24);
  const std::pair<int, int> shapes[] = {
      {23, 23}, {23, 100}, {24, 24}, {25, 31}, {47, 47}, {48, 48},
      {49, 60}, {95, 95}, {96, 96}, {97, 130}, {24, 73}, {24, 100},
      {25, 76}, {30, 200}, {40, 400}};
  for (const auto& [an, bn] : shapes) {
    const BigInt a = random_wide(an);
    const BigInt b = random_wide(bn);
    for (const BigInt& x : {a, -a}) {
      for (const BigInt& y : {b, -b}) {
        check(x, y);
        check(y, x);
      }
    }
  }
  // Zero and one-limb operands stay off the Karatsuba path but must give
  // the same products with the flag on.
  const BigInt wide = random_wide(60);
  for (const BigInt& small :
       {BigInt(0), BigInt(1), BigInt(-1), BigInt(12345),
        BigInt(static_cast<unsigned long long>(rng.next()))}) {
    check(small, wide);
    check(wide, small);
    check(small, small);
  }
}

// The BigIntNtt suite once also covered an NTT rung of the multiply
// dispatch; the rung is gone and the suite now checks the remaining
// schoolbook/Karatsuba switch through the public operator*.

/// Restores the process-wide Karatsuba flag on scope exit, so a failing
/// assertion cannot leak an enabled multiplier into later tests.
struct KaratsubaGuard {
  bool saved = BigInt::karatsuba_enabled();
  ~KaratsubaGuard() { BigInt::set_karatsuba_enabled(saved); }
};

BigInt random_bigint(std::size_t limbs, bool negative, Prng& rng) {
  std::vector<BigInt::Limb> l(limbs);
  for (auto& x : l) x = rng.next();
  if (!l.empty() && l.back() == 0) l.back() = 1;
  return BigInt::from_limbs(l.data(), limbs, negative);
}

TEST(BigIntNtt, DispatchLadderSweep) {
  // Every size from one limb through three Karatsuba recursion levels,
  // with mixed signs and unequal lengths: schoolbook and Karatsuba must
  // give the same product on each side of kKaratsubaThreshold.
  KaratsubaGuard guard;
  Prng rng(0x4321);
  for (std::size_t n = 1; n <= 100; ++n) {
    const BigInt a = random_bigint(n, (n % 2) != 0, rng);
    const BigInt b = random_bigint(n + (n % 3), (n % 4) == 0, rng);
    BigInt::set_karatsuba_enabled(false);
    const BigInt ref = a * b;
    BigInt::set_karatsuba_enabled(true);
    EXPECT_EQ(a * b, ref) << n << " limbs";
  }
}

TEST(BigIntNtt, SignZeroAndSingleLimbEdges) {
  KaratsubaGuard guard;
  Prng rng(0x9e3779b9);
  // Above kKaratsubaThreshold, so these products recurse.
  const BigInt x = random_bigint(30, false, rng);
  const BigInt y = random_bigint(30, false, rng);
  BigInt::set_karatsuba_enabled(false);
  const BigInt xy = x * y;
  BigInt::set_karatsuba_enabled(true);
  EXPECT_EQ(x * y, xy);
  EXPECT_TRUE((x * BigInt(0)).is_zero());
  EXPECT_TRUE((BigInt(0) * x).is_zero());
  EXPECT_EQ(x * BigInt(1), x);
  EXPECT_EQ(x * BigInt(-1), -x);
  EXPECT_EQ((-x) * y, -xy);
  EXPECT_EQ(x * (-y), -xy);
  EXPECT_EQ((-x) * (-y), xy);
  // Single-limb times multi-limb stays on the schoolbook path (below the
  // threshold) but must agree with the Karatsuba-enabled setting.
  const BigInt s(12345);
  BigInt::set_karatsuba_enabled(false);
  const BigInt ref = s * x;
  BigInt::set_karatsuba_enabled(true);
  EXPECT_EQ(s * x, ref);
}

}  // namespace
}  // namespace pr
