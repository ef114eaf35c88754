// Certified fixed-precision signs (poly/certified_sign.hpp): a randomized
// differential against the exact scaled Horner value, the certified share
// on the tree-node polynomials the pipeline probes, and the gate in the
// interval layer (modular arithmetic on: same reports, cheaper probes).
// BoundedEval fuzzes the P-bit evaluation and the precision ladder built
// on it: every exact value lies inside its bounds, at any point size,
// scale and precision, a zero is never certified, and the ladder takes an
// exact value only at a zero or at its cost limit.  filtered_sign_scaled,
// the two-limb rung followed by the ladder from 248 bits, must equal the
// exact sign on every probe.  Newton's quotient from the ladder's bounds
// (bounded_quotient, newton_step_scaled) must equal the exact e / d
// whenever it is fixed.
#include "poly/certified_sign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/root_finder.hpp"
#include "core/tree.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "layer_replay.hpp"
#include "modular/modular_prs.hpp"
#include "poly/bounds.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

/// Uniformly random magnitude with exactly `bits` bits, random sign.
BigInt random_bigint(Prng& rng, std::size_t bits) {
  if (bits == 0) return BigInt();
  BigInt v = BigInt::pow2(bits - 1);  // force the top bit
  for (std::size_t lo = 0; lo + 1 < bits; lo += 64) {
    const std::size_t width = std::min<std::size_t>(64, bits - 1 - lo);
    std::uint64_t word = rng.next();
    if (width < 64) word &= (std::uint64_t{1} << width) - 1;
    v += BigInt(static_cast<unsigned long long>(word)) << lo;
  }
  return rng.coin() ? -std::move(v) : v;
}

/// Degree-`degree` polynomial with about one zero coefficient in five and
/// the others up to `max_bits` bits.
Poly random_test_poly(Prng& rng, int degree, std::size_t max_bits) {
  std::vector<BigInt> c;
  for (int i = 0; i <= degree; ++i) {
    const std::size_t bits = 1 + rng.below(max_bits);
    c.push_back(rng.below(5) == 0 ? BigInt() : random_bigint(rng, bits));
  }
  if (c.back().is_zero()) c.back() = BigInt(rng.coin() ? 1 : -1);
  return Poly(std::move(c));
}

/// Point numerators up to 127 bits, one in eight at 128-191 bits (beyond
/// the working multiplier), zero included.
BigInt random_point(Prng& rng) {
  const std::size_t bits =
      rng.below(8) == 0 ? 128 + rng.below(64) : rng.below(128);
  return random_bigint(rng, bits);
}

/// Scales from 0 to 1024, half of them at limb and two-limb boundaries.
std::size_t random_scale(Prng& rng) {
  static const std::size_t kEdges[] = {0, 1, 63, 64, 65, 127, 128, 129, 1024};
  return rng.coin() ? kEdges[rng.below(9)] : rng.below(1025);
}

struct Tally {
  std::size_t probes = 0;
  std::size_t certified = 0;
  std::size_t zeros = 0;
  std::size_t wide = 0;  ///< points with |t| >= 2^128
  double share() const {
    return probes == 0 ? 0.0
                       : static_cast<double>(certified) /
                             static_cast<double>(probes);
  }
};

/// One probe against the exact sign: a certified sign must equal it, an
/// exact zero must never be certified, and filtered_sign_scaled must give
/// the exact sign -- at a zero through the ladder's exact value.
void check_probe(const Poly& p, const BigInt& t, std::size_t w, Tally& tally) {
  const int exact = p.sign_at_scaled(t, w);
  const std::optional<int> got = certified_sign_scaled(p, t, w);
  ++tally.probes;
  if (exact == 0) ++tally.zeros;
  if (t.bit_length() > 128) ++tally.wide;
  const auto where = [&] {
    return "degree " + std::to_string(p.degree()) + ", ||p|| " +
           std::to_string(p.max_coeff_bits()) + " bits, t " + t.to_hex() +
           ", w " + std::to_string(w);
  };
  if (got) {
    ++tally.certified;
    EXPECT_NE(exact, 0) << "certified an exact zero: " << where();
    EXPECT_EQ(*got, exact) << where();
  }
  if (t.bit_length() > 128) {
    EXPECT_FALSE(got.has_value()) << "|t| >= 2^128 must fall back: " << where();
  }
  EXPECT_EQ(filtered_sign_scaled(p, t, w), exact) << where();
  if (exact == 0) {
    std::uint64_t exact_evals = 0;
    const ValueBounds z = certified_eval_scaled(p, t, w, 248, &exact_evals);
    EXPECT_EQ(z.sign, 0) << where();
    EXPECT_EQ(exact_evals, 1u) << "a zero reaches the exact value: " << where();
    EXPECT_TRUE(z.lo.is_zero() && z.hi.is_zero()) << where();
  }
}

/// The tree-node polynomials (degree >= 2) of `input` with their
/// mu-scaled roots, computed as the pipeline does with modular arithmetic
/// on.
std::vector<std::pair<Poly, std::vector<BigInt>>> tree_nodes(
    const Poly& input, std::size_t mu) {
  modular::ModularConfig mod;
  mod.enabled = true;
  const Poly work = input.primitive_part();
  std::optional<RemainderSequence> rs =
      modular::compute_remainder_sequence_multimodular(work, mod);
  if (!rs) rs = compute_remainder_sequence(work);
  Tree tree(work.degree());
  test::replay_tree(tree, *rs, mu, BigInt::pow2(root_bound_pow2(work) + mu),
                    IntervalSolverConfig{}, nullptr, &mod);
  std::vector<std::pair<Poly, std::vector<BigInt>>> out;
  for (int idx : tree.postorder()) {
    const TreeNode& nd = tree.node(idx);
    if (!nd.empty() && nd.poly.degree() >= 2) {
      out.emplace_back(nd.poly, nd.roots);
    }
  }
  return out;
}

TEST(CertifiedSign, EdgeCases) {
  EXPECT_FALSE(certified_sign_scaled(Poly(), BigInt(3), 5));
  EXPECT_EQ(certified_sign_scaled(Poly::constant(-BigInt::pow2(5000)),
                                  BigInt::pow2(127), 1024),
            -1);
  // |t| >= 2^128 always falls back, even where the sign is obvious.
  EXPECT_FALSE(certified_sign_scaled(Poly{1, 1}, BigInt::pow2(128), 0));
  EXPECT_EQ(certified_sign_scaled(Poly{1, 1}, BigInt::pow2(128) - 1, 0), 1);
  EXPECT_EQ(certified_sign_scaled(Poly{1, 1}, -BigInt::pow2(128) + 2, 0), -1);
  // t = 0: p(0) = a_0.
  EXPECT_FALSE(certified_sign_scaled(Poly{0, 1}, BigInt(0), 9));
  EXPECT_EQ(certified_sign_scaled(Poly{-1, 1}, BigInt(0), 9), -1);
  // 4x^2 - 1: exact roots at -1/2 and 1/2 at any scale, and 2^-98 away
  // from the root a value of about 2^-98, which certifies.
  const Poly q{-1, 0, 4};
  EXPECT_FALSE(certified_sign_scaled(q, BigInt(-1), 1));
  EXPECT_FALSE(certified_sign_scaled(q, -BigInt::pow2(99), 100));
  EXPECT_FALSE(certified_sign_scaled(q, BigInt::pow2(126), 127));
  EXPECT_EQ(certified_sign_scaled(q, -BigInt::pow2(99) - BigInt(1), 100), 1);
  EXPECT_EQ(certified_sign_scaled(q, BigInt::pow2(99) - BigInt(1), 100), -1);
}

TEST(CertifiedSign, RandomPolynomialsMatchTheExactSign) {
  Prng rng(0xce57);
  static const std::size_t kMaxBits[] = {8, 64, 130, 3000, 20000};
  Tally tally;
  for (int iter = 0; iter < 600; ++iter) {
    const int degree = static_cast<int>(iter % 2 == 0 ? rng.below(3)
                                                      : rng.below(129));
    const Poly p = random_test_poly(rng, degree, kMaxBits[rng.below(5)]);
    for (int k = 0; k < 4; ++k) {
      const BigInt t = random_point(rng);
      check_probe(p, t, random_scale(rng), tally);
      check_probe(p, -t, random_scale(rng), tally);
    }
    check_probe(p, BigInt(0), random_scale(rng), tally);
  }
  EXPECT_GT(tally.certified, tally.probes / 2);
  EXPECT_GT(tally.wide, tally.probes / 20);
}

TEST(CertifiedSign, ExactDyadicRootsAreNeverCertified) {
  // prod (2^a x - b) with b odd: the root b / 2^a is the exact point
  // (b << (w - a)) / 2^w at every scale w >= a.  Some factors repeat.
  Prng rng(0xd1ad);
  Tally tally;
  for (int iter = 0; iter < 150; ++iter) {
    Poly p{1};
    std::vector<std::pair<std::size_t, BigInt>> roots;
    const int k = 1 + static_cast<int>(rng.below(12));
    for (int i = 0; i < k; ++i) {
      const std::size_t a = rng.below(41);
      BigInt b = random_bigint(rng, 1 + rng.below(60));
      if (b.is_even()) b += BigInt(1);
      const Poly factor(std::vector<BigInt>{-b, BigInt::pow2(a)});
      p *= factor;
      if (rng.below(4) == 0) p *= factor;
      roots.emplace_back(a, std::move(b));
    }
    for (const auto& [a, b] : roots) {
      const std::size_t w = a + rng.below(90);
      const BigInt t = b << (w - a);
      check_probe(p, t, w, tally);
      EXPECT_FALSE(certified_sign_scaled(p, t, w));
      for (int delta : {-2, -1, 1, 2}) {
        check_probe(p, t + BigInt(delta), w, tally);
      }
    }
  }
  EXPECT_GE(tally.zeros, 150u);
}

TEST(CertifiedSign, NearRootsOfTreeNodePolynomials) {
  // Points within two units of the node roots, at the root scale mu and
  // at the interval solver's scale mu + 8, for mu from 20 to 100.
  Prng rng(41);
  const std::vector<Poly> inputs = {random_jacobi_poly(24, 1000000, rng),
                                    paper_input(16, rng).poly};
  for (const Poly& input : inputs) {
    for (std::size_t mu : {20u, 37u, 53u, 71u, 100u}) {
      Tally tally;
      for (const auto& [poly, roots] : tree_nodes(input, mu)) {
        for (const BigInt& r : roots) {
          for (int delta = -2; delta <= 2; ++delta) {
            check_probe(poly, r + BigInt(delta), mu, tally);
            check_probe(poly, (r << 8) + BigInt(delta), mu + 8, tally);
          }
        }
      }
      EXPECT_GT(tally.probes, 0u);
    }
  }
}

TEST(CertifiedSign, CertifiesMostJacobi96TreeNodeProbes) {
  // A bound that silently always fell back would still be correct; the
  // pipeline's saving needs it to certify.  Jacobi-96 (tree-large's
  // input class) at mu 53: random points of each node's root range, and
  // points within two units of its roots at the scales the pre-interval
  // (w = 53) and interval (w = 61) tasks probe.
  Prng rng(9);
  const std::size_t mu = 53;
  Tally random_pts, near_53, near_61;
  for (const auto& [poly, roots] :
       tree_nodes(random_jacobi_poly(96, 9, rng), mu)) {
    ASSERT_TRUE(roots.front().fits_int64() && roots.back().fits_int64());
    const std::int64_t lo = roots.front().to_int64();
    const std::int64_t hi = roots.back().to_int64();
    for (int k = 0; k < 10; ++k) {
      const BigInt t(static_cast<long long>(rng.range(lo, hi)));
      check_probe(poly, t, mu, random_pts);
      const BigInt low_bits(static_cast<long long>(rng.below(256)));
      check_probe(poly, (t << 8) + low_bits, mu + 8, random_pts);
    }
    for (const BigInt& r : roots) {
      for (int delta = -2; delta <= 2; ++delta) {
        check_probe(poly, r + BigInt(delta), mu, near_53);
        check_probe(poly, (r << 8) + BigInt(delta), mu + 8, near_61);
      }
    }
  }
  EXPECT_GE(random_pts.share(), 0.99) << random_pts.probes << " probes";
  EXPECT_GE(near_53.share(), 0.80) << near_53.probes << " probes";
  EXPECT_GE(near_61.share(), 0.80) << near_61.probes << " probes";
}

TEST(CertifiedSign, SecondRungDecidesJacobi128ProbesNearRoots) {
  // Jacobi-128, the tree's root node, at the interval tasks' scale
  // w = 61, probed one to two units (2^-61 to 2^-60) from each root: the
  // two-limb rung certifies only about a quarter of these probes, and the
  // ladder's first rung of 248 bits decides every one it declines, so
  // filtered_sign_scaled takes no exact value there.
  Prng rng(9);
  const std::size_t w = 61;
  const Poly poly = random_jacobi_poly(128, 9, rng).primitive_part();
  RootFinderConfig cfg;
  cfg.mu_bits = w;
  cfg.modular.enabled = true;
  const std::vector<BigInt> roots = find_real_roots(poly, cfg).roots;
  ASSERT_EQ(roots.size(), 128u);
  Tally first;
  for (const BigInt& r : roots) {
    // r = ceil(2^61 x), so r + 1 and r - 2 lie one to two units from x.
    for (const BigInt& t : {r + BigInt(1), r - BigInt(2)}) {
      const int exact = poly.sign_at_scaled(t, w);
      ASSERT_NE(exact, 0);
      ++first.probes;
      if (certified_sign_scaled(poly, t, w)) {
        ++first.certified;
      } else {
        std::uint64_t exact_evals = 0;
        const ValueBounds v =
            certified_eval_scaled(poly, t, w, 248, &exact_evals);
        EXPECT_EQ(exact_evals, 0u) << t.to_hex();
        EXPECT_EQ(v.prec, 248u) << t.to_hex();
        EXPECT_EQ(v.sign, exact) << t.to_hex();
      }
      // An exact value would count the Horner rule's d multiplications.
      const std::uint64_t muls = instr::thread_counts().total().mul_count;
      EXPECT_EQ(filtered_sign_scaled(poly, t, w), exact);
      EXPECT_EQ(instr::thread_counts().total().mul_count, muls) << t.to_hex();
    }
  }
  EXPECT_LT(first.share(), 0.5) << first.probes << " probes";
}

/// lo * 2^exp <= |p(t / 2^w)| <= hi * 2^exp for E = 2^(dw) p(t / 2^w), with
/// the sign of E.
void expect_inside(const Poly& p, std::size_t w, const BigInt& exact,
                   const ValueBounds& got, const std::string& where) {
  EXPECT_EQ(got.sign, exact.signum()) << where;
  if (got.sign == 0) return;
  ASSERT_GT(got.lo.signum(), 0) << where;
  ASSERT_LE(got.lo, got.hi) << where;
  // |E| = |p(t / 2^w)| * 2^(dw): compare lo * 2^k and hi * 2^k with |E|,
  // k = exp + dw, shifting whichever side keeps both integral.
  const std::int64_t k =
      got.exp + static_cast<std::int64_t>(w) * p.degree();
  const BigInt mag = exact.abs();
  if (k >= 0) {
    EXPECT_LE(got.lo << static_cast<std::size_t>(k), mag) << where;
    EXPECT_GE(got.hi << static_cast<std::size_t>(k), mag) << where;
  } else {
    const BigInt up = mag << static_cast<std::size_t>(-k);
    EXPECT_LE(got.lo, up) << where;
    EXPECT_GE(got.hi, up) << where;
  }
}

/// One bounded evaluation against the exact value E = 2^(dw) p(t / 2^w):
/// when certified, the sign is E's and lo * 2^exp <= |p(t / 2^w)| <= hi *
/// 2^exp; a zero is never certified.
void check_bounds(const Poly& p, const BigInt& t, std::size_t w,
                  std::size_t prec, Tally& tally) {
  const BigInt exact = p.eval_scaled(t, w);
  const ValueBounds got = bounded_eval_scaled(p, t, w, prec);
  ++tally.probes;
  if (exact.is_zero()) ++tally.zeros;
  const auto where = [&] {
    return "degree " + std::to_string(p.degree()) + ", ||p|| " +
           std::to_string(p.max_coeff_bits()) + " bits, t of " +
           std::to_string(t.bit_length()) + " bits, w " + std::to_string(w) +
           ", prec " + std::to_string(prec);
  };
  if (got.sign == 0) return;
  ++tally.certified;
  ASSERT_NE(exact.signum(), 0) << "certified an exact zero: " << where();
  EXPECT_EQ(got.prec, prec) << where();
  expect_inside(p, w, exact, got, where());
}

/// Precisions from one bit to beyond the exact value's size, limb edges
/// included.
std::size_t random_prec(Prng& rng) {
  static const std::size_t kEdges[] = {1, 2, 53, 63, 64, 65, 128, 300, 5000};
  return rng.coin() ? kEdges[rng.below(9)] : 1 + rng.below(2000);
}

TEST(BoundedEval, EdgeCases) {
  EXPECT_EQ(bounded_eval_scaled(Poly(), BigInt(3), 5, 64).sign, 0);
  EXPECT_EQ(bounded_eval_scaled(Poly{0, 1}, BigInt(0), 9, 64).sign, 0);
  EXPECT_EQ(bounded_eval_scaled(Poly{1, 1}, BigInt(5), 2, 0).sign, 0);
  // A constant is exact at any precision that holds it, and bounded
  // (lo < hi) below that.
  const Poly big = Poly::constant(-BigInt::pow2(5000) - BigInt(1));
  const ValueBounds whole = bounded_eval_scaled(big, BigInt(7), 3, 5001);
  EXPECT_EQ(whole.sign, -1);
  EXPECT_EQ(whole.lo, whole.hi);
  EXPECT_EQ(whole.lo, BigInt::pow2(5000) + BigInt(1));
  EXPECT_EQ(whole.exp, 0);
  const ValueBounds cut = bounded_eval_scaled(big, BigInt(7), 3, 100);
  EXPECT_EQ(cut.sign, -1);
  EXPECT_LT(cut.lo, cut.hi);
  // x + 1 at t = +-2^5000, w = 4100: +-2^900 + 1, far beyond a double's
  // range on the way.  One or two bits leave a unit of error against a
  // mantissa of 1 or 2; from 64 bits on it certifies.
  Tally low, wide;
  for (std::size_t prec : {1u, 2u}) {
    check_bounds(Poly{1, 1}, BigInt::pow2(5000), 4100, prec, low);
    check_bounds(Poly{1, 1}, -BigInt::pow2(5000), 4100, prec, low);
  }
  for (std::size_t prec : {64u, 901u, 4000u}) {
    check_bounds(Poly{1, 1}, BigInt::pow2(5000), 4100, prec, wide);
    check_bounds(Poly{1, 1}, -BigInt::pow2(5000), 4100, prec, wide);
  }
  EXPECT_EQ(wide.certified, wide.probes);
  // 4x^2 - 1 at its roots +-1/2, at scales up to 4100: never certified.
  const Poly q{-1, 0, 4};
  for (std::size_t w : {1u, 64u, 1025u, 4100u}) {
    for (std::size_t prec : {1u, 64u, 5000u, 10000u}) {
      EXPECT_EQ(bounded_eval_scaled(q, BigInt::pow2(w - 1), w, prec).sign, 0);
      EXPECT_EQ(bounded_eval_scaled(q, -BigInt::pow2(w - 1), w, prec).sign,
                0);
    }
  }
}

TEST(BoundedEval, RandomPolynomialsStayInsideTheBounds) {
  // Degrees 0-64, coefficients of either sign up to a few hundred bits;
  // points up to 300 bits, one in six far beyond 2^1024 (to about 4,500
  // bits), at scales up to 4,100.
  Prng rng(0xb0d5);
  static const std::size_t kMaxBits[] = {8, 64, 130, 400};
  Tally tally;
  for (int iter = 0; iter < 240; ++iter) {
    const int degree = static_cast<int>(rng.below(65));
    const Poly p = random_test_poly(rng, degree, kMaxBits[rng.below(4)]);
    for (int k = 0; k < 3; ++k) {
      const bool huge = rng.below(6) == 0 && degree <= 24;
      const BigInt t = random_bigint(
          rng, huge ? 1025 + rng.below(3500) : rng.below(300));
      const std::size_t w = rng.coin() ? rng.below(300) : rng.below(4101);
      check_bounds(p, t, w, random_prec(rng), tally);
      check_bounds(p, -t, w, random_prec(rng), tally);
    }
    check_bounds(p, BigInt(0), rng.below(4101), random_prec(rng), tally);
  }
  // Correct but useless would pass the checks above: most probes, drawn
  // far from any root, must certify.
  EXPECT_GT(tally.certified, tally.probes * 3 / 4);
}

TEST(BoundedEval, DyadicRootsAndPointsNearThem) {
  // prod (2^a x - b), b odd, some factors repeated: the root b / 2^a is the
  // point (b << (w - a)) / 2^w at every scale w >= a, and never certifies.
  // Points 2^-k away (k up to w) certify once prec covers the cancellation.
  Prng rng(0xd1ad2);
  Tally exact_roots, near, near_wide;
  for (int iter = 0; iter < 60; ++iter) {
    Poly p{1};
    std::vector<std::pair<std::size_t, BigInt>> roots;
    const int count = 1 + static_cast<int>(rng.below(10));
    for (int i = 0; i < count; ++i) {
      const std::size_t a = rng.below(41);
      BigInt b = random_bigint(rng, 1 + rng.below(60));
      if (b.is_even()) b += BigInt(1);
      const Poly factor(std::vector<BigInt>{-b, BigInt::pow2(a)});
      p *= factor;
      if (rng.below(4) == 0) p *= factor;
      roots.emplace_back(a, std::move(b));
    }
    for (const auto& [a, b] : roots) {
      const std::size_t w = a + (rng.coin() ? rng.below(200) : rng.below(4060));
      const BigInt t = b << (w - a);
      for (std::size_t prec : {64u, 1000u, 20000u}) {
        check_bounds(p, t, w, prec, exact_roots);
      }
      for (int j = 0; j < 3; ++j) {
        const std::size_t k = rng.below(w + 1);  // distance 2^-k
        BigInt delta = BigInt::pow2(w - k);
        if (rng.coin()) delta = -delta;
        check_bounds(p, t + delta, w, random_prec(rng), near);
        check_bounds(p, t + delta, w, 2 * w + 1000, near_wide);
      }
    }
  }
  EXPECT_EQ(exact_roots.certified, 0u);
  EXPECT_EQ(exact_roots.zeros, exact_roots.probes);
  EXPECT_GT(near_wide.certified, near_wide.probes * 9 / 10)
      << near_wide.zeros << " zeros";
}

/// One certified_eval_scaled against the exact value and against the rungs
/// it should have tried: the first of prec, 2 prec, 4 prec, ... below the
/// documented cost limit ||p|| + d * max(w, bits(t)) / 2 that certifies
/// answers; only when none does is the exact value taken and counted.
/// `certified` tallies rung answers, and the exact values that are not
/// zeros are the cost limit's.
void check_ladder(const Poly& p, const BigInt& t, std::size_t w,
                  std::size_t prec, Tally& tally) {
  const BigInt exact = p.eval_scaled(t, w);
  std::uint64_t exact_evals = 0;
  const ValueBounds got = certified_eval_scaled(p, t, w, prec, &exact_evals);
  const std::string where = "degree " + std::to_string(p.degree()) +
                            ", t of " + std::to_string(t.bit_length()) +
                            " bits, w " + std::to_string(w) + ", prec " +
                            std::to_string(prec);
  const auto d = static_cast<std::size_t>(std::max(p.degree(), 0));
  const std::size_t limit =
      p.max_coeff_bits() + d * std::max(w, t.bit_length()) / 2;
  std::size_t rung = 0;
  for (std::size_t r = std::max<std::size_t>(prec, 1); r < limit; r *= 2) {
    if (bounded_eval_scaled(p, t, w, r).sign != 0) {
      rung = r;
      break;
    }
  }
  expect_inside(p, w, exact, got, where);
  ++tally.probes;
  if (rung != 0) {
    ++tally.certified;
    EXPECT_EQ(exact_evals, 0u) << where;
    EXPECT_EQ(got.prec, rung) << where;
    return;
  }
  if (exact.is_zero()) ++tally.zeros;
  EXPECT_EQ(exact_evals, 1u) << where;
  EXPECT_EQ(got.prec, 0u) << where;
  EXPECT_EQ(got.lo, exact.abs()) << where;
  EXPECT_EQ(got.hi, exact.abs()) << where;
  EXPECT_EQ(got.exp, -static_cast<std::int64_t>(w * d)) << where;
}

TEST(BoundedEval, LadderBoundsHoldAtEveryStartPrecision) {
  // Random polynomials of degree 0-40 at points up to 300 bits (one in
  // six beyond 2^1024), and products of dyadic factors at their roots and
  // 2^-k from them, each entered at start precisions from one bit to
  // beyond the cost limit.
  Prng rng(0x1add);
  static const std::size_t kMaxBits[] = {8, 64, 130, 400};
  static const std::size_t kStarts[] = {1, 2, 64, 124, 248, 1000, 20000};
  Tally tally;
  for (int iter = 0; iter < 120; ++iter) {
    const int degree = static_cast<int>(rng.below(41));
    const Poly p = random_test_poly(rng, degree, kMaxBits[rng.below(4)]);
    for (int k = 0; k < 2; ++k) {
      const bool huge = rng.below(6) == 0 && degree <= 24;
      const BigInt t = random_bigint(
          rng, huge ? 1025 + rng.below(3500) : rng.below(300));
      const std::size_t w = rng.coin() ? rng.below(300) : rng.below(4101);
      check_ladder(p, t, w, kStarts[rng.below(7)], tally);
      check_ladder(p, -t, w, kStarts[rng.below(7)], tally);
    }
  }
  for (int iter = 0; iter < 30; ++iter) {
    Poly p{1};
    std::vector<std::pair<std::size_t, BigInt>> roots;
    const int count = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < count; ++i) {
      const std::size_t a = rng.below(41);
      BigInt b = random_bigint(rng, 1 + rng.below(60));
      if (b.is_even()) b += BigInt(1);
      p *= Poly(std::vector<BigInt>{-b, BigInt::pow2(a)});
      roots.emplace_back(a, std::move(b));
    }
    for (const auto& [a, b] : roots) {
      const std::size_t w = a + rng.below(400);
      const BigInt t = b << (w - a);
      const BigInt delta = BigInt::pow2(rng.below(w - a + 1));
      for (std::size_t prec : kStarts) {
        check_ladder(p, t, w, prec, tally);
        check_ladder(p, t + delta, w, prec, tally);
      }
    }
  }
  EXPECT_GT(tally.certified, 0u);
  EXPECT_GT(tally.zeros, 0u);
  EXPECT_GT(tally.probes, tally.certified + tally.zeros);  // the cost limit
}

/// The ladder's exact value of a degree-d polynomial: lo == hi == |v| at
/// exp = -dw for v = 2^(dw) f(t / 2^w).
ValueBounds exact_bounds(const BigInt& v, int degree, std::size_t w) {
  ValueBounds out;
  out.sign = v.signum();
  out.lo = v.abs();
  out.hi = v.abs();
  out.exp = -static_cast<std::int64_t>(w) * degree;
  return out;
}

struct QuotientTally {
  std::size_t points = 0;    ///< p and p' nonzero
  std::size_t fixed = 0;     ///< bounded pairs that fixed the quotient
  std::size_t unfixed = 0;   ///< bounded pairs that did not
  std::size_t dp_zeros = 0;  ///< exact zeros of p'
};

/// Newton's quotient at one point against the exact e / d, e =
/// p.eval_scaled(t, w) and d = p'.eval_scaled(t, w).  bounded_quotient of
/// P-bit bounds on p and p', and of either with the other's exact value,
/// equals e / d whenever it answers; two exact values always answer; and
/// newton_step_scaled from the ladder's values at P is e / d.  At an exact
/// zero of p' the ladder's sign is 0 (Newton then bisects).
void check_quotient(const Poly& p, const BigInt& t, std::size_t w,
                    std::size_t prec, QuotientTally& tally) {
  const Poly dp = p.derivative();
  const BigInt e = p.eval_scaled(t, w);
  const BigInt d = dp.eval_scaled(t, w);
  const std::string where = "degree " + std::to_string(p.degree()) +
                            ", t of " + std::to_string(t.bit_length()) +
                            " bits, w " + std::to_string(w) + ", prec " +
                            std::to_string(prec);
  if (d.is_zero()) {
    ++tally.dp_zeros;
    EXPECT_EQ(certified_eval_scaled(dp, t, w, prec, nullptr).sign, 0)
        << where;
    return;
  }
  if (e.is_zero()) return;
  ++tally.points;
  const BigInt q = e / d;
  const ValueBounds xe = exact_bounds(e, p.degree(), w);
  const ValueBounds xd = exact_bounds(d, dp.degree(), w);
  const std::optional<BigInt> exact = bounded_quotient(xe, xd, w);
  ASSERT_TRUE(exact.has_value()) << "exact values must fix it: " << where;
  EXPECT_EQ(*exact, q) << where;
  const auto check = [&](const ValueBounds& fe, const ValueBounds& fd) {
    if (fe.sign == 0 || fd.sign == 0) return;
    const std::optional<BigInt> got = bounded_quotient(fe, fd, w);
    if (!got) {
      ++tally.unfixed;
      return;
    }
    ++tally.fixed;
    EXPECT_EQ(*got, q) << where;
  };
  const ValueBounds be = bounded_eval_scaled(p, t, w, prec);
  const ValueBounds bd = bounded_eval_scaled(dp, t, w, prec);
  check(be, bd);
  check(be, xd);
  check(xe, bd);
  EXPECT_EQ(newton_step_scaled(p, dp, t, w,
                               certified_eval_scaled(p, t, w, prec, nullptr),
                               certified_eval_scaled(dp, t, w, prec, nullptr)),
            q)
      << where;
}

/// (2^a x - b) for a random odd b of up to 60 bits: the root b / 2^a.
Poly dyadic_factor(Prng& rng, std::size_t a, BigInt& b) {
  b = random_bigint(rng, 1 + rng.below(60));
  if (b.is_even()) b += BigInt(1);
  return Poly(std::vector<BigInt>{-b, BigInt::pow2(a)});
}

TEST(BoundedEval, QuotientIsFixedOnlyWhenTheBoundsAgree) {
  // Newton's quotient e / d: random polynomials of degree 1-64 at random
  // points, and times dyadic factors at points 2^-40 to 2^-61 from their
  // roots; f^2 s + c, whose derivative vanishes exactly at f's root, at
  // that root and near it (where d is tiny and the quotient long).  Start
  // precisions run from one bit to 20,000.
  Prng rng(0x9e37);
  static const std::size_t kMaxBits[] = {8, 64, 130, 400};
  static const std::size_t kStarts[] = {1, 2, 64, 124, 248, 1000, 20000};
  const auto start = [&] { return kStarts[rng.below(7)]; };
  QuotientTally tally;
  for (int iter = 0; iter < 80; ++iter) {
    const int degree = 1 + static_cast<int>(rng.below(64));
    const Poly p = random_test_poly(rng, degree, kMaxBits[rng.below(4)]);
    const BigInt t = random_bigint(rng, rng.below(300));
    const std::size_t w = rng.below(300);
    check_quotient(p, t, w, start(), tally);
    check_quotient(p, -t, w, start(), tally);
  }
  for (int iter = 0; iter < 80; ++iter) {
    const int roots = 1 + static_cast<int>(rng.below(6));
    Poly p = random_test_poly(rng, static_cast<int>(rng.below(59)),
                              kMaxBits[rng.below(4)]);
    std::vector<std::pair<std::size_t, BigInt>> at;
    for (int i = 0; i < roots; ++i) {
      const std::size_t a = rng.below(41);
      BigInt b;
      p *= dyadic_factor(rng, a, b);
      at.emplace_back(a, std::move(b));
    }
    for (const auto& [a, b] : at) {
      const std::size_t k = 40 + rng.below(22);  // distance 2^-k
      const std::size_t w = std::max(a, k) + rng.below(200);
      BigInt delta = BigInt::pow2(w - k);
      if (rng.coin()) delta = -delta;
      check_quotient(p, (b << (w - a)) + delta, w, start(), tally);
    }
  }
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t a = rng.below(41);
    BigInt b;
    const Poly f = dyadic_factor(rng, a, b);
    Poly p = f * f * random_test_poly(rng, static_cast<int>(rng.below(20)),
                                      kMaxBits[rng.below(4)]);
    p += Poly::constant(random_bigint(rng, 1 + rng.below(100)));
    const std::size_t k = 40 + rng.below(22);
    const std::size_t w = std::max(a, k) + rng.below(200);
    const BigInt root = b << (w - a);
    check_quotient(p, root, w, start(), tally);
    check_quotient(p, root + BigInt::pow2(w - k), w, start(), tally);
    check_quotient(p, root - BigInt::pow2(w - k), w, start(), tally);
  }
  EXPECT_GE(tally.dp_zeros, 40u);
  // Both outcomes must occur, or the checks above prove little.
  EXPECT_GT(tally.fixed, tally.points);
  EXPECT_GT(tally.unfixed, 0u);
}

TEST(CertifiedSign, ModularRunsKeepReportsAndCutProbeCosts) {
  // The gate: with modular arithmetic on, the pre-interval, sieve and
  // bisection probes go through the filter and Newton's steps take their
  // values from the precision ladder, so those phases' bit costs fall
  // while every report field stays the same.
  Prng rng(17);
  const Poly p = random_jacobi_poly(40, 9, rng);
  RootFinderConfig exact_cfg;
  exact_cfg.mu_bits = 53;
  RootFinderConfig mod_cfg = exact_cfg;
  mod_cfg.modular.enabled = true;
  const auto run = [&p](const RootFinderConfig& cfg, RootReport& report) {
    const instr::PhaseCounts before = instr::thread_counts();
    report = find_real_roots(p, cfg);  // one thread: runs on the caller
    return instr::thread_counts() - before;
  };
  RootReport exact, mod;
  const instr::PhaseCounts ce = run(exact_cfg, exact);
  const instr::PhaseCounts cm = run(mod_cfg, mod);
  test::expect_same_report(exact, mod, "jacobi-40");
  using instr::Phase;
  for (Phase ph : {Phase::kPreInterval, Phase::kSieve, Phase::kBisect}) {
    EXPECT_GT(ce[ph].bit_cost(), 0u) << instr::phase_name(ph);
    EXPECT_LT(cm[ph].bit_cost(), ce[ph].bit_cost()) << instr::phase_name(ph);
  }
  EXPECT_LT(cm[Phase::kNewton].bit_cost(), ce[Phase::kNewton].bit_cost());
}

}  // namespace
}  // namespace pr
