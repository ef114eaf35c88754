// The multimodular subsystem: word-sized prime fields, CRT reconstruction,
// the multimodular remainder sequence and tree polynomials -- all proven
// bit-identical to the exact BigInt paths -- plus BigInt::mod_u64 and the
// mod-p verifier.  The tree-polynomial recurrence has its own suite,
// test_tree_poly.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/root_finder.hpp"
#include "core/tree.hpp"
#include "core/tree_builder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "instr/phase.hpp"
#include "layer_replay.hpp"
#include "modular/crt.hpp"
#include "modular/modular_prs.hpp"
#include "modular/polyzp.hpp"
#include "modular/tree_poly.hpp"
#include "modular/zp.hpp"
#include "poly/remainder_sequence.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "verify/certificate.hpp"

namespace pr {
namespace {

using modular::CrtBasis;
using modular::ModularConfig;
using modular::PolyZp;
using modular::PrimeField;
using modular::PrsBound;
using modular::Zp;

constexpr std::uint64_t kSmallPrime = 1000003;  // forced-prime test seam

Poly random_poly(int degree, long long span, Prng& rng) {
  std::vector<BigInt> c(static_cast<std::size_t>(degree) + 1);
  for (auto& x : c) x = BigInt(rng.range(-span, span));
  while (c.back().is_zero()) c.back() = BigInt(rng.range(-span, span));
  return Poly(std::move(c));
}

void expect_sequences_equal(const RemainderSequence& a,
                            const RemainderSequence& b, const char* what) {
  ASSERT_EQ(a.n, b.n) << what;
  ASSERT_EQ(a.nstar, b.nstar) << what;
  ASSERT_EQ(a.F.size(), b.F.size()) << what;
  ASSERT_EQ(a.Q.size(), b.Q.size()) << what;
  ASSERT_EQ(a.c.size(), b.c.size()) << what;
  for (std::size_t i = 0; i < a.F.size(); ++i) {
    EXPECT_EQ(a.F[i], b.F[i]) << what << ": F_" << i;
  }
  for (std::size_t i = 1; i < a.Q.size(); ++i) {
    EXPECT_EQ(a.Q[i], b.Q[i]) << what << ": Q_" << i;
  }
  for (std::size_t i = 0; i < a.c.size(); ++i) {
    EXPECT_EQ(a.c[i], b.c[i]) << what << ": c_" << i;
  }
  EXPECT_EQ(a.gcd_part, b.gcd_part) << what;
}

/// The levels the task graph holds whole for a degree-n input.
std::vector<int> graph_levels(const Poly& f0) {
  return Tree(f0.degree()).spine_levels();
}

/// A partial sequence against the exact one: F_0, F_1 and the levels in
/// `levels` equal and nothing else held, every Q_t and c_t equal.
void expect_partial_matches(const RemainderSequence& exact,
                            const RemainderSequence& partial,
                            const std::vector<int>& levels,
                            const std::string& what) {
  ASSERT_EQ(exact.n, partial.n) << what;
  ASSERT_EQ(exact.nstar, partial.nstar) << what;
  ASSERT_EQ(exact.F.size(), partial.F.size()) << what;
  ASSERT_EQ(exact.Q.size(), partial.Q.size()) << what;
  ASSERT_EQ(exact.c.size(), partial.c.size()) << what;
  std::vector<bool> held(exact.F.size(), false);
  held[0] = held[1] = true;
  for (int t : levels) held[static_cast<std::size_t>(t)] = true;
  for (std::size_t t = 0; t < held.size(); ++t) {
    const int level = static_cast<int>(t);
    EXPECT_EQ(partial.has_level(level), held[t]) << what << ": F_" << t;
    if (held[t]) {
      EXPECT_EQ(partial.F[t], exact.F[t]) << what << ": F_" << t;
    } else {
      EXPECT_TRUE(partial.F[t].is_zero()) << what << ": F_" << t;
    }
  }
  for (std::size_t i = 1; i < exact.Q.size(); ++i) {
    EXPECT_EQ(exact.Q[i], partial.Q[i]) << what << ": Q_" << i;
  }
  for (std::size_t i = 0; i < exact.c.size(); ++i) {
    EXPECT_EQ(exact.c[i], partial.c[i]) << what << ": c_" << i;
  }
  EXPECT_EQ(exact.gcd_part, partial.gcd_part) << what;
}

// --- primes and fields ------------------------------------------------------

TEST(ZpField, PrimalityTest) {
  EXPECT_TRUE(modular::is_prime_u64(2));
  EXPECT_TRUE(modular::is_prime_u64(3));
  EXPECT_TRUE(modular::is_prime_u64(kSmallPrime));
  EXPECT_TRUE(modular::is_prime_u64((1ull << 61) - 1));  // Mersenne
  EXPECT_FALSE(modular::is_prime_u64(1));
  EXPECT_FALSE(modular::is_prime_u64(1000001));  // 101 * 9901
  EXPECT_FALSE(modular::is_prime_u64(3215031751ull));  // strong pseudoprime
}

TEST(ZpField, ModulusTableIsDistinctPrimesBelow2To62) {
  std::vector<std::uint64_t> seen;
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint64_t p = modular::nth_modulus(i);
    EXPECT_TRUE(modular::is_prime_u64(p)) << p;
    EXPECT_LT(p, 1ull << 62);
    EXPECT_GT(p, 1ull << 61);  // dense near the top of the range
    // The table only admits p == 1 (mod 2^20).
    EXPECT_EQ(p % (1ull << 20), 1u) << p;
    for (std::uint64_t q : seen) EXPECT_NE(p, q);
    seen.push_back(p);
  }
  // Deterministic: asking again returns the same primes.
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(modular::nth_modulus(i), seen[i]);
  }
}

TEST(ZpField, ModulusTableValuesArePinned) {
  // Slot i must name the same prime in every build: prime selection, and
  // with it every modular counter, depends on these values.
  const std::uint64_t expected[64] = {
      0x3ffffffffeb00001ull, 0x3ffffffffa000001ull, 0x3ffffffff9f00001ull,
      0x3ffffffff9000001ull, 0x3ffffffff7b00001ull, 0x3ffffffff7600001ull,
      0x3ffffffff6700001ull, 0x3ffffffff5e00001ull, 0x3ffffffff4f00001ull,
      0x3ffffffff4600001ull, 0x3ffffffff3700001ull, 0x3ffffffff1b00001ull,
      0x3ffffffff0c00001ull, 0x3fffffffece00001ull, 0x3fffffffeaf00001ull,
      0x3fffffffea300001ull, 0x3fffffffea000001ull, 0x3fffffffe9a00001ull,
      0x3fffffffe9500001ull, 0x3fffffffe5000001ull, 0x3fffffffe3b00001ull,
      0x3fffffffe2b00001ull, 0x3fffffffe2900001ull, 0x3fffffffe2300001ull,
      0x3fffffffdf900001ull, 0x3fffffffdf500001ull, 0x3fffffffdb600001ull,
      0x3fffffffda100001ull, 0x3fffffffd9800001ull, 0x3fffffffd9000001ull,
      0x3fffffffd6900001ull, 0x3fffffffd5900001ull, 0x3fffffffd3600001ull,
      0x3fffffffd2a00001ull, 0x3fffffffd1800001ull, 0x3fffffffd1500001ull,
      0x3fffffffce200001ull, 0x3fffffffcc000001ull, 0x3fffffffca800001ull,
      0x3fffffffc9c00001ull, 0x3fffffffc9100001ull, 0x3fffffffc8d00001ull,
      0x3fffffffc8800001ull, 0x3fffffffc8700001ull, 0x3fffffffc8200001ull,
      0x3fffffffc7b00001ull, 0x3fffffffc7900001ull, 0x3fffffffc5d00001ull,
      0x3fffffffc5200001ull, 0x3fffffffc4800001ull, 0x3fffffffc2e00001ull,
      0x3fffffffc2d00001ull, 0x3fffffffc2500001ull, 0x3fffffffc2100001ull,
      0x3fffffffc1f00001ull, 0x3fffffffc1600001ull, 0x3fffffffbcb00001ull,
      0x3fffffffbc400001ull, 0x3fffffffbb300001ull, 0x3fffffffba900001ull,
      0x3fffffffba100001ull, 0x3fffffffb9a00001ull, 0x3fffffffb9800001ull,
      0x3fffffffb7c00001ull};
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(modular::nth_modulus(i), expected[i]) << "slot " << i;
  }
}

TEST(ZpField, ArithmeticMatchesWideReference) {
  const std::uint64_t p = modular::nth_modulus(0);
  const PrimeField f(p);
  Prng rng(123);
  for (int it = 0; it < 200; ++it) {
    const std::uint64_t a = rng.next() % p;
    const std::uint64_t b = rng.next() % p;
    const Zp za = f.from_u64(a);
    const Zp zb = f.from_u64(b);
    EXPECT_EQ(f.to_u64(za), a);
    EXPECT_EQ(f.to_u64(f.add(za, zb)), (a + b) % p);  // p < 2^62: no wrap
    EXPECT_EQ(f.to_u64(f.sub(za, zb)), (a + p - b) % p);
    const auto wide = static_cast<unsigned __int128>(a) * b;
    EXPECT_EQ(f.to_u64(f.mul(za, zb)), static_cast<std::uint64_t>(wide % p));
    if (a != 0) {
      EXPECT_EQ(f.to_u64(f.mul(za, f.inv(za))), 1u);
    }
  }
  EXPECT_EQ(f.to_u64(f.pow(f.from_u64(3), p - 1)), 1u);  // Fermat
}

TEST(ZpField, ReduceMatchesModU64) {
  const PrimeField f(kSmallPrime);
  Prng rng(77);
  for (int it = 0; it < 50; ++it) {
    BigInt x(1);
    for (int limbs = 0; limbs < 3; ++limbs) {
      x *= BigInt(static_cast<unsigned long long>(rng.next() | 1));
    }
    if (rng.coin()) x = -x;
    EXPECT_EQ(f.to_u64(f.reduce(x)), x.mod_u64(kSmallPrime));
  }
}

// --- BigInt::mod_u64 --------------------------------------------------------

TEST(BigIntModU64, SmallAndEdgeCases) {
  EXPECT_EQ(BigInt(0).mod_u64(7), 0u);
  EXPECT_EQ(BigInt(13).mod_u64(7), 6u);
  EXPECT_EQ(BigInt(14).mod_u64(7), 0u);
  EXPECT_EQ(BigInt(123456789).mod_u64(1), 0u);
  EXPECT_THROW(BigInt(5).mod_u64(0), DivisionByZero);
}

TEST(BigIntModU64, NegativeGivesTrueResidue) {
  // True mathematical residue in [0, m), not the symmetric/truncated one.
  EXPECT_EQ(BigInt(-1).mod_u64(7), 6u);
  EXPECT_EQ(BigInt(-13).mod_u64(7), 1u);
  EXPECT_EQ(BigInt(-14).mod_u64(7), 0u);
}

TEST(BigIntModU64, MultiLimbMatchesReconstruction) {
  Prng rng(42);
  const std::uint64_t m = modular::nth_modulus(1);
  for (int it = 0; it < 40; ++it) {
    BigInt x(static_cast<long long>(rng.range(-1000000, 1000000)));
    for (int k = 0; k < 4; ++k) {
      x *= BigInt(static_cast<unsigned long long>(rng.next()));
      x += BigInt(static_cast<long long>(rng.range(-99, 99)));
    }
    const std::uint64_t r = x.mod_u64(m);
    ASSERT_LT(r, m);
    // (x - r) must be divisible by m: check via a second reduction of the
    // difference computed in BigInt arithmetic.
    EXPECT_EQ((x - BigInt(static_cast<unsigned long long>(r))).mod_u64(m), 0u);
  }
}

// --- PolyZp -----------------------------------------------------------------

TEST(PolyZpTest, ImageCommutesWithArithmetic) {
  const PrimeField f(modular::nth_modulus(0));
  Prng rng(7);
  for (int it = 0; it < 20; ++it) {
    const Poly a = random_poly(6, 50, rng);
    const Poly b = random_poly(4, 50, rng);
    const PolyZp ia = PolyZp::from_poly(a, f);
    const PolyZp ib = PolyZp::from_poly(b, f);
    EXPECT_EQ(PolyZp::from_poly(a + b, f), ia.add(ib, f));
    EXPECT_EQ(PolyZp::from_poly(a - b, f), ia.sub(ib, f));
    EXPECT_EQ(PolyZp::from_poly(a * b, f), ia.mul(ib, f));
    EXPECT_EQ(PolyZp::from_poly(a.derivative(), f), ia.derivative(f));
    const Zp x = f.from_u64(rng.next() % 1000);
    EXPECT_EQ(PolyZp::from_poly(a, f).eval(x, f),
              f.reduce(a.eval(BigInt(
                  static_cast<unsigned long long>(f.to_u64(x))))));
  }
}

TEST(PolyZpTest, DivmodIsEuclidean) {
  const PrimeField f(modular::nth_modulus(0));
  Prng rng(8);
  for (int it = 0; it < 20; ++it) {
    const PolyZp a = PolyZp::from_poly(random_poly(7, 99, rng), f);
    const PolyZp b = PolyZp::from_poly(random_poly(3, 99, rng), f);
    PolyZp q, r;
    PolyZp::divmod(a, b, f, q, r);
    EXPECT_LT(r.degree(), b.degree());
    EXPECT_EQ(q.mul(b, f).add(r, f), a);
  }
}

// --- CRT --------------------------------------------------------------------

TEST(CrtTest, RoundTripsSignedValues) {
  std::vector<std::uint64_t> primes;
  for (std::size_t i = 0; i < 6; ++i) primes.push_back(modular::nth_modulus(i));
  const CrtBasis basis(primes);
  Prng rng(9);
  for (int it = 0; it < 60; ++it) {
    BigInt x(static_cast<long long>(rng.range(-5, 5)));
    const int limbs = static_cast<int>(rng.below(5));
    for (int k = 0; k < limbs; ++k) {
      x *= BigInt(static_cast<unsigned long long>(rng.next() | 1));
      if (rng.coin()) x = -x;
    }
    const std::size_t k = basis.primes_for_bits(x.bit_length() + 1);
    std::vector<std::uint64_t> residues(k);
    for (std::size_t j = 0; j < k; ++j) residues[j] = x.mod_u64(primes[j]);
    EXPECT_EQ(basis.reconstruct(residues.data(), k), x) << "limbs=" << limbs;
  }
}

TEST(CrtTest, SymmetricLiftAtTheHalfModulus) {
  // The lift decides the sign from the mixed-radix digits alone: check it
  // at +-floor(M/2) and their neighbours, at zero, and at -2^64 and
  // -2^128, whose complement digits carry out of the top limb.  A
  // negative value is counted as one addition of M's size, the exact
  // subtraction x - M it stands for; a non-negative one as none.
  std::vector<std::uint64_t> primes;
  for (std::size_t i = 0; i < 40; ++i) primes.push_back(modular::nth_modulus(i));
  const CrtBasis basis(primes);
  for (std::size_t k : {1u, 2u, 3u, 7u, 40u}) {
    BigInt m(1);
    for (std::size_t j = 0; j < k; ++j) {
      m *= BigInt(static_cast<unsigned long long>(primes[j]));
    }
    const BigInt half = m >> 1;
    std::vector<BigInt> values = {BigInt(0),        BigInt(1),
                                  BigInt(-1),       half,
                                  -half,            half - BigInt(1),
                                  -(half - BigInt(1))};
    for (std::size_t e : {64u, 128u}) {
      if (BigInt::pow2(e) < half) values.push_back(-BigInt::pow2(e));
    }
    std::vector<std::uint64_t> batch(k * values.size());
    for (std::size_t c = 0; c < values.size(); ++c) {
      const BigInt& x = values[c];
      std::vector<std::uint64_t> residues(k);
      for (std::size_t j = 0; j < k; ++j) {
        residues[j] = x.mod_u64(primes[j]);
        batch[j * values.size() + c] = residues[j];
      }
      instr::reset_all();
      const BigInt got = basis.reconstruct(residues.data(), k);
      const instr::OpCounts counts = instr::aggregate().total();
      EXPECT_EQ(got, x) << "k=" << k << " c=" << c;
      EXPECT_EQ(counts.add_count, x.signum() < 0 ? 1u : 0u);
      EXPECT_EQ(counts.add_bits, x.signum() < 0 ? m.bit_length() : 0u);
      EXPECT_EQ(counts.mul_count + counts.div_count, 0u);
    }
    std::vector<BigInt> out(values.size());
    basis.reconstruct_batch(batch.data(), values.size(), k, out.data(),
                            values.size());
    EXPECT_EQ(out, values) << "k=" << k;
  }
}

TEST(CrtTest, PrimesForBitsIsMonotoneAndSufficient) {
  std::vector<std::uint64_t> primes;
  for (std::size_t i = 0; i < 8; ++i) primes.push_back(modular::nth_modulus(i));
  const CrtBasis basis(primes);
  std::size_t prev = 0;
  for (std::size_t bits = 1; bits < 480; bits += 37) {
    const std::size_t k = basis.primes_for_bits(bits);
    EXPECT_GE(k, prev);
    EXPECT_GE(61 * k, bits + 2);  // each prime contributes >= 61 bits
    prev = k;
  }
  EXPECT_THROW(basis.primes_for_bits(100000), InternalError);
}

TEST(CrtTest, BasisSetupReportsNoOpCounts) {
  // One run shares a basis across the task graph while the one-node layer
  // call builds one per node, so set-up must not show in the per-phase
  // operation counts.  (Its tables are still allocated; the allocation
  // counters are outside the cost model.)
  std::vector<std::uint64_t> primes;
  for (std::size_t i = 0; i < 300; ++i) primes.push_back(modular::nth_modulus(i));
  instr::reset_all();
  const instr::PhaseCounts before = instr::aggregate();
  {
    instr::PhaseScope phase(instr::Phase::kTreePoly);
    const CrtBasis basis(primes);
    EXPECT_EQ(basis.size(), primes.size());
  }
  const instr::PhaseCounts after = instr::aggregate();
  for (std::size_t ph = 0; ph < instr::kNumPhases; ++ph) {
    const auto& a = before.by_phase[ph];
    const auto& b = after.by_phase[ph];
    const char* where = instr::phase_name(static_cast<instr::Phase>(ph));
    EXPECT_EQ(a.mul_count, b.mul_count) << where;
    EXPECT_EQ(a.div_count, b.div_count) << where;
    EXPECT_EQ(a.add_count, b.add_count) << where;
    EXPECT_EQ(a.mul_bits, b.mul_bits) << where;
    EXPECT_EQ(a.div_bits, b.div_bits) << where;
    EXPECT_EQ(a.add_bits, b.add_bits) << where;
  }
}

TEST(CrtTest, PrsBoundDominatesActualCoefficients) {
  Prng rng(11);
  const Poly f0 = random_poly(20, 99, rng);
  const PrsBound bound(f0, f0.derivative());
  const RemainderSequence rs = compute_remainder_sequence(f0);
  for (int i = 1; i <= rs.n; ++i) {
    EXPECT_GE(bound.bits_for(i),
              rs.F[static_cast<std::size_t>(i)].max_coeff_bits())
        << "level " << i;
  }
}

// --- multimodular remainder sequence ----------------------------------------

ModularConfig forced_on() {
  ModularConfig cfg;
  cfg.enabled = true;
  cfg.min_degree = 2;  // force the fast path even on small inputs
  return cfg;
}

/// The modular counters of stage 1 alone, when the task graph runs
/// find_real_roots_parallel on `pc`: a run with the multimodular stage 1
/// minus one with the exact stage 1 (RemainderGrain::kSequential), whose tree
/// stage sees the same sequence.  Inputs with non-real roots stop at the
/// stage-1 publish in both runs (no fallback here).  *report
/// receives the first run's report when there is one.
instr::ModularCounts graph_stage1_counts(const Poly& f0,
                                         const ModularConfig& mod,
                                         const ParallelConfig& pc,
                                         RootReport* report = nullptr) {
  RootFinderConfig cfg;
  cfg.modular = mod;
  cfg.allow_sturm_fallback = false;
  const auto run = [&](bool sequential, RootReport* out) {
    ParallelConfig p = pc;
    if (sequential) p.grain = RemainderGrain::kSequential;
    instr::reset_modular();
    try {
      auto r = find_real_roots_parallel(f0, cfg, p);
      if (out != nullptr) *out = std::move(r.report);
    } catch (const NonNormalSequence&) {
    }
    return instr::modular_counts();
  };
  const instr::ModularCounts all = run(false, report);
  const instr::ModularCounts tree = run(true, nullptr);
  instr::ModularCounts d;
  d.primes_used = all.primes_used - tree.primes_used;
  d.images = all.images - tree.images;
  d.bad_primes = all.bad_primes - tree.bad_primes;
  d.crt_values = all.crt_values - tree.crt_values;
  d.crt_limbs = all.crt_limbs - tree.crt_limbs;
  d.combines = all.combines - tree.combines;
  d.fallbacks = all.fallbacks - tree.fallbacks;
  return d;
}

void expect_same_counts(const instr::ModularCounts& a,
                        const instr::ModularCounts& b,
                        const std::string& where) {
  EXPECT_EQ(a.primes_used, b.primes_used) << where;
  EXPECT_EQ(a.images, b.images) << where;
  EXPECT_EQ(a.bad_primes, b.bad_primes) << where;
  EXPECT_EQ(a.crt_values, b.crt_values) << where;
  EXPECT_EQ(a.crt_limbs, b.crt_limbs) << where;
  EXPECT_EQ(a.combines, b.combines) << where;
  EXPECT_EQ(a.fallbacks, b.fallbacks) << where;
}

TEST(MultimodularPrs, DifferentialSweepAgainstExact) {
  Prng rng(0x5eed);
  // Low degrees get wide coefficients so the Hadamard bound still demands
  // >= 3 primes (the worthwhile() threshold); high degrees grow on their
  // own and keep the exact reference affordable with narrow coefficients.
  const std::pair<int, long long> cases[] = {
      {8, 1000000000000000LL}, {16, 1000000LL}, {24, 40}, {33, 40},
      {48, 40},               {64, 20},        {96, 10},
  };
  for (const auto& [degree, span] : cases) {
    const Poly f0 = random_poly(degree, span, rng);
    const RemainderSequence exact = compute_remainder_sequence(f0);
    auto fast =
        modular::compute_remainder_sequence_multimodular(f0, forced_on());
    ASSERT_TRUE(fast.has_value()) << "degree " << degree;
    expect_sequences_equal(exact, *fast, "sweep");
    // The task graph reconstructs the values of the one-call form given
    // its level set, at every thread count.
    const std::string where = "degree " + std::to_string(degree);
    const std::vector<int> levels = graph_levels(f0);
    instr::reset_modular();
    const auto partial =
        modular::compute_remainder_sequence_multimodular(f0, forced_on(),
                                                         levels);
    const instr::ModularCounts inline_counts = instr::modular_counts();
    ASSERT_TRUE(partial.has_value()) << where;
    expect_partial_matches(exact, *partial, levels, where);
    EXPECT_EQ(inline_counts.fallbacks, 0u);
    for (int threads : {1, 2, 4}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      expect_same_counts(
          inline_counts, graph_stage1_counts(f0, forced_on(), pc),
          "degree " + std::to_string(degree) + ", P=" +
              std::to_string(threads));
    }
  }
}

TEST(MultimodularPrs, SmallDegreeDeclines) {
  Prng rng(3);
  const Poly f0 = random_poly(8, 20, rng);
  ModularConfig cfg = forced_on();
  cfg.min_degree = 24;
  EXPECT_FALSE(
      modular::compute_remainder_sequence_multimodular(f0, cfg).has_value());
}

TEST(MultimodularPrs, RepeatedRootsFallBackToExact) {
  const Poly w = wilkinson(6);
  const Poly f0 = w * w;  // every root doubled: extended sequence
  instr::reset_modular();
  const auto fast =
      modular::compute_remainder_sequence_multimodular(f0, forced_on());
  EXPECT_FALSE(fast.has_value());
  EXPECT_GE(instr::modular_counts().fallbacks, 1u);
}

/// Crafts a degree-n monic input whose lc(F_2) is a nonzero multiple of
/// every prime in `primes`: lc(F_2) = (n-1)*a_{n-1}^2 - 2n*a_{n-2} for
/// monic f0, so pick a_{n-1} = 1 and a_{n-2} = (n-1) * inv(2n) modulo the
/// primes' product, in [0, product).
Poly crafted_bad_prime_input(int n, const std::vector<std::uint64_t>& primes,
                             Prng& rng) {
  std::vector<std::uint64_t> residues;
  BigInt product(1);
  for (std::uint64_t p : primes) {
    const PrimeField f(p);
    residues.push_back(f.to_u64(
        f.mul(f.from_u64(static_cast<std::uint64_t>(n - 1)),
              f.inv(f.from_u64(static_cast<std::uint64_t>(2 * n))))));
    product *= BigInt(static_cast<unsigned long long>(p));
  }
  BigInt t = CrtBasis(primes).reconstruct(residues.data(), primes.size());
  if (t.signum() < 0) t += product;
  std::vector<BigInt> c(static_cast<std::size_t>(n) + 1);
  for (auto& x : c) x = BigInt(rng.range(-9, 9));
  c[static_cast<std::size_t>(n)] = BigInt(1);
  c[static_cast<std::size_t>(n - 1)] = BigInt(1);
  c[static_cast<std::size_t>(n - 2)] = std::move(t);
  return Poly(std::move(c));
}

TEST(MultimodularPrs, BadPrimeIsDetectedAndReplaced) {
  Prng rng(21);
  const Poly f0 = crafted_bad_prime_input(32, {kSmallPrime}, rng);
  const RemainderSequence exact = compute_remainder_sequence(f0);
  // Sanity: the sampled "bad" prime really kills lc(F_2) without killing
  // the selection screen (it does not divide lc(F_0) * lc(F_1)).
  ASSERT_EQ(exact.F[2].leading().mod_u64(kSmallPrime), 0u);
  ASSERT_FALSE(exact.F[2].leading().is_zero());

  ModularConfig cfg = forced_on();
  cfg.forced_primes = {kSmallPrime};
  instr::reset_modular();
  const auto fast = modular::compute_remainder_sequence_multimodular(f0, cfg);
  ASSERT_TRUE(fast.has_value());
  expect_sequences_equal(exact, *fast, "bad prime");
  EXPECT_GE(instr::modular_counts().bad_primes, 1u);
}

TEST(MultimodularPrs, HeldOutCheckThatCannotRunFallsBack) {
  // Three held-out candidates that all divide lc(F_2): none of their
  // images gets past level 1, so the held-out check cannot run, and a
  // check that cannot run must not pass.
  Prng rng(24);
  const std::vector<std::uint64_t> bad = {kSmallPrime, 1000033, 1000037};
  const Poly f0 = crafted_bad_prime_input(32, bad, rng);
  const RemainderSequence exact = compute_remainder_sequence(f0);
  for (std::uint64_t p : bad) {
    ASSERT_EQ(exact.F[2].leading().mod_u64(p), 0u) << p;
  }

  // The held-out candidates are drawn right after the slots, so forcing
  // the slots' own table primes first puts `bad` into the held-out draws.
  instr::reset_modular();
  ASSERT_TRUE(modular::compute_remainder_sequence_multimodular(f0, forced_on())
                  .has_value());
  const std::uint64_t selected = instr::modular_counts().primes_used;
  ModularConfig cfg = forced_on();
  for (std::size_t s = 0; s < selected; ++s) {
    cfg.forced_primes.push_back(modular::nth_modulus(s));
  }
  cfg.forced_primes.insert(cfg.forced_primes.end(), bad.begin(), bad.end());

  instr::reset_modular();
  EXPECT_FALSE(
      modular::compute_remainder_sequence_multimodular(f0, cfg).has_value());
  EXPECT_EQ(instr::modular_counts().fallbacks, 1u);
  EXPECT_EQ(instr::modular_counts().bad_primes, 0u);  // every slot imaged

  // Through the graph the exact path answers instead.
  RootFinderConfig off;
  const RootReport want = find_real_roots(f0, off);
  RootFinderConfig on = off;
  on.modular = cfg;
  for (int threads : {1, 4}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    instr::reset_modular();
    const auto got = find_real_roots_parallel(f0, on, pc);
    EXPECT_EQ(instr::modular_counts().fallbacks, 1u);
    test::expect_same_report(want, got.report,
                             "P=" + std::to_string(threads));
  }
}

TEST(MultimodularPrs, PrimeDividingLeadingCoeffSkippedAtSelection) {
  Prng rng(22);
  Poly f0 = random_poly(24, 9, rng);
  std::vector<BigInt> c = f0.coeffs();
  c.back() = BigInt(static_cast<unsigned long long>(kSmallPrime));
  f0 = Poly(std::move(c));
  const RemainderSequence exact = compute_remainder_sequence(f0);

  ModularConfig cfg = forced_on();
  cfg.forced_primes = {kSmallPrime};  // divides lc(F_0): never selected
  instr::reset_modular();
  const auto fast = modular::compute_remainder_sequence_multimodular(f0, cfg);
  ASSERT_TRUE(fast.has_value());
  expect_sequences_equal(exact, *fast, "lc skip");
  EXPECT_EQ(instr::modular_counts().bad_primes, 0u);
}

/// Inputs of every shape the chain meets: Jacobi and Berkowitz inputs,
/// classic families, clustered roots, and non-monic wide inputs, which
/// would catch a Q_1 taken from c_0 = +-1 instead of lc(F_0).
std::vector<std::pair<std::string, Poly>> chain_inputs() {
  Prng rng(0xc4a1);
  std::vector<std::pair<std::string, Poly>> inputs;
  inputs.emplace_back("jacobi-24", random_jacobi_poly(24, 9, rng));
  inputs.emplace_back("jacobi-64", random_jacobi_poly(64, 9, rng));
  inputs.emplace_back("jacobi-96", random_jacobi_poly(96, 9, rng));
  inputs.emplace_back("berkowitz-64", paper_input(64, rng).poly);
  inputs.emplace_back("wilkinson-30", wilkinson(30));
  inputs.emplace_back("hermite-40", hermite(40));
  inputs.emplace_back("legendre-40", legendre_scaled(40));
  inputs.emplace_back("clustered-16",
                      clustered_rational_roots(16, 1000003, 50, rng));
  inputs.emplace_back("random-12-wide",
                      random_poly(12, 1000000000000000LL, rng));
  inputs.emplace_back("random-40-wide", random_poly(40, 1000000000000LL, rng));
  return inputs;
}

TEST(MultimodularPrs, ChainBoundCoversEveryLevel) {
  // B_t must bound the actual coefficient bits of every F_t and stay
  // within the Hadamard bound.  The non-monic wide inputs would catch a
  // Q_1 bound taken from c_0 = +-1 instead of lc(F_0).
  for (const auto& [name, f0] : chain_inputs()) {
    const RemainderSequence exact = compute_remainder_sequence(f0);
    modular::MultimodularPrs prs(f0, forced_on());
    ASSERT_TRUE(prs.worthwhile()) << name;
    for (std::size_t s = 0; s < prs.num_slots(); ++s) prs.run_image(s);
    prs.run_holdout();
    prs.prepare_crt();
    for (std::size_t l = 1; l <= prs.num_levels(); ++l) {
      prs.size_level(static_cast<int>(l));
      prs.reconstruct_level(static_cast<int>(l));
    }
    const auto fast = prs.finalize();
    ASSERT_TRUE(fast.has_value()) << name;
    expect_sequences_equal(exact, *fast, name.c_str());
    const PrsBound hadamard(f0, f0.derivative());
    EXPECT_EQ(prs.bound_bits(0), f0.max_coeff_bits()) << name;
    EXPECT_EQ(prs.bound_bits(1), f0.derivative().max_coeff_bits()) << name;
    for (int t = 2; t <= exact.n; ++t) {
      const auto ut = static_cast<std::size_t>(t);
      EXPECT_GE(prs.bound_bits(t), exact.F[ut].max_coeff_bits())
          << name << ": F_" << t;
      EXPECT_LE(prs.bound_bits(t), hadamard.bits_for(t))
          << name << ": F_" << t;
    }
  }
}

TEST(MultimodularPrs, ThreadDeterminismMatrix) {
  Prng rng(0xba7c4);
  // One task per prime image at 1/2/4 threads on the task graph: the
  // same values are reconstructed as by the one-call form given the
  // graph's level set, and a real-rooted input keeps its exact report.
  // The thread count is scheduling, never arithmetic.
  const Poly inputs[] = {random_poly(30, 1000000LL, rng),
                         random_jacobi_poly(40, 6, rng)};
  for (const Poly& f0 : inputs) {
    const RemainderSequence exact = compute_remainder_sequence(f0);
    const auto fast =
        modular::compute_remainder_sequence_multimodular(f0, forced_on());
    ASSERT_TRUE(fast.has_value());
    expect_sequences_equal(exact, *fast, "one-call");
    instr::reset_modular();
    ASSERT_TRUE(modular::compute_remainder_sequence_multimodular(
                    f0, forced_on(), graph_levels(f0))
                    .has_value());
    const instr::ModularCounts inline_counts = instr::modular_counts();
    const bool real_rooted = real_root_count(exact) == exact.n;
    RootReport want;
    if (real_rooted) want = find_real_roots(f0, RootFinderConfig{});
    for (int threads : {1, 2, 4}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      const std::string where = "n=" + std::to_string(f0.degree()) +
                                " P=" + std::to_string(threads);
      RootReport got;
      expect_same_counts(inline_counts,
                         graph_stage1_counts(f0, forced_on(), pc, &got),
                         where);
      if (real_rooted) test::expect_same_report(want, got, where);
    }
  }
}

TEST(ModularEscalation, GraphMatchesExactPastTheEagerPrefix) {
  // Both inputs need more primes than the eager prefix holds, so the
  // chain images the extra slots inline and grows the basis while the
  // level tasks it already released read the basis they were sized on.
  // Primitive parts: those are what the graph runs on.
  for (const Poly& f0 :
       {hermite(40).primitive_part(), legendre_scaled(40).primitive_part()}) {
    const std::string name = "n=" + std::to_string(f0.degree()) +
                             " lc bits " +
                             std::to_string(f0.leading().bit_length());
    ModularConfig mod;
    mod.enabled = true;
    const modular::MultimodularPrs probe(f0, mod);
    ASSERT_TRUE(probe.worthwhile()) << name;

    const RemainderSequence exact = compute_remainder_sequence(f0);
    const auto fast = modular::compute_remainder_sequence_multimodular(f0, mod);
    ASSERT_TRUE(fast.has_value()) << name;
    expect_sequences_equal(exact, *fast, name.c_str());
    const std::vector<int> levels = graph_levels(f0);
    instr::reset_modular();
    const auto partial =
        modular::compute_remainder_sequence_multimodular(f0, mod, levels);
    const instr::ModularCounts inline_counts = instr::modular_counts();
    ASSERT_TRUE(partial.has_value()) << name;
    expect_partial_matches(exact, *partial, levels, name);
    EXPECT_GT(inline_counts.images, probe.num_slots()) << name;

    RootFinderConfig off;
    const RootReport want = find_real_roots(f0, off);
    for (int threads : {1, 4}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      const std::string where = name + " P=" + std::to_string(threads);
      RootReport got;
      const instr::ModularCounts graph = graph_stage1_counts(f0, mod, pc, &got);
      expect_same_counts(inline_counts, graph, where);
      EXPECT_GT(graph.images, probe.num_slots()) << where;
      test::expect_same_report(want, got, where);
    }
  }
}

TEST(MultimodularPrs, GraphReconstructsLessThanEveryLevel) {
  // The graph holds only the spine levels whole (5 of the 95 levels
  // F_2..F_96 here), so it reconstructs fewer values than the one-call
  // form that holds every level, from the same images.
  Prng rng(0x96);
  const Poly f0 = random_jacobi_poly(96, 9, rng);
  ModularConfig mod;
  mod.enabled = true;
  instr::reset_modular();
  ASSERT_TRUE(
      modular::compute_remainder_sequence_multimodular(f0, mod).has_value());
  const instr::ModularCounts every = instr::modular_counts();
  ParallelConfig pc;
  pc.num_threads = 2;
  const instr::ModularCounts graph = graph_stage1_counts(f0, mod, pc);
  EXPECT_EQ(graph.fallbacks, 0u);
  EXPECT_EQ(every.images, graph.images);
  EXPECT_GT(every.crt_values, graph.crt_values);
  EXPECT_GT(every.crt_limbs, graph.crt_limbs);
}

// --- partial sequences -----------------------------------------------------

TEST(MultimodularPartial, HeldLevelsAndEveryCAndQMatchExact) {
  // The graph's level set on every chain input, and on the primitive
  // hermite(40), whose bound climbs past the eager prefix: the chain
  // images more primes while earlier level tasks hold their basis.
  auto inputs = chain_inputs();
  inputs.emplace_back("hermite-40 primitive", hermite(40).primitive_part());
  for (const auto& [name, f0] : inputs) {
    const RemainderSequence exact = compute_remainder_sequence(f0);
    const std::vector<int> levels = graph_levels(f0);
    instr::reset_modular();
    const auto partial =
        modular::compute_remainder_sequence_multimodular(f0, forced_on(),
                                                         levels);
    ASSERT_TRUE(partial.has_value()) << name;
    expect_partial_matches(exact, *partial, levels, name);
    EXPECT_EQ(real_root_count(*partial), real_root_count(exact)) << name;
    if (name == "hermite-40 primitive") {
      const modular::MultimodularPrs probe(f0, forced_on());
      EXPECT_GT(instr::modular_counts().images, probe.num_slots()) << name;
    }
  }
}

TEST(MultimodularPartial, TreePolysMatchFromEitherShape) {
  // Non-spine nodes read only c_t and Q_t, spine nodes their held level:
  // the whole tree comes out as the exact T_{i,j} combines give it.
  for (const auto& [name, f0] : chain_inputs()) {
    if (name != "jacobi-64" && name != "berkowitz-64" &&
        name != "random-40-wide") {
      continue;
    }
    const int n = f0.degree();
    const RemainderSequence exact = compute_remainder_sequence(f0);
    const auto partial = modular::compute_remainder_sequence_multimodular(
        f0, forced_on(), graph_levels(f0));
    ASSERT_TRUE(partial.has_value()) << name;

    Tree want(n), got(n);
    const ModularConfig mod = forced_on();
    for (int idx : want.postorder()) compute_node_poly(want, idx, exact);
    for (int idx : got.postorder()) {
      compute_node_poly(got, idx, *partial, &mod);
    }
    std::vector<std::pair<int, int>> ranges;
    std::vector<int> internal;
    for (int idx : want.postorder()) {
      const TreeNode& nd = want.node(idx);
      EXPECT_EQ(got.node(idx).poly, nd.poly)
          << name << ": [" << nd.i << ", " << nd.j << "]";
      if (!nd.empty() && !nd.leaf() && !nd.spine(n)) {
        ranges.emplace_back(nd.i, nd.j);
        internal.push_back(idx);
      }
    }
    // One shared table over every internal non-spine node, as the graph
    // builds it, from each shape.
    modular::ModularTreePolys from_partial(*partial, ranges, mod);
    modular::ModularTreePolys from_full(exact, ranges, mod);
    for (auto* table : {&from_partial, &from_full}) {
      table->set_up();
      table->compute_residues(0, 1);
      table->publish();
    }
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      const Poly& p = want.node(internal[k]).poly;
      EXPECT_EQ(from_partial.node_poly(k), p) << name << ": node " << k;
      EXPECT_EQ(from_full.node_poly(k), p) << name << ": node " << k;
    }
  }
}

TEST(MultimodularPartial, AbsentLevelsAreNeverReadAsZero) {
  Prng rng(0xab5);
  const Poly f0 = random_jacobi_poly(40, 9, rng);
  const int n = f0.degree();
  const auto full =
      modular::compute_remainder_sequence_multimodular(f0, forced_on());
  // No level beyond F_0 and F_1 held.
  const auto bare =
      modular::compute_remainder_sequence_multimodular(f0, forced_on(), {});
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(bare.has_value());

  // Every c_t is there: all 40 roots are real, counted from c alone.
  EXPECT_EQ(real_root_count(*bare), n);
  for (int t = 2; t <= n; ++t) {
    EXPECT_FALSE(bare->has_level(t)) << t;
    EXPECT_THROW((void)bare->level(t), InvalidArgument) << t;
    EXPECT_EQ(full->level(t), full->F[static_cast<std::size_t>(t)]) << t;
  }

  const std::uint64_t p = modular::nth_modulus(0);
  EXPECT_TRUE(verify_remainder_sequence_mod(*full, p));
  EXPECT_THROW((void)verify_remainder_sequence_mod(*bare, p), InvalidArgument);

  // A spine node over an absent level refuses; the root reads F_0.
  Tree tree(n);
  const ModularConfig mod = forced_on();
  int spine_nodes = 0;
  for (int idx : tree.postorder()) {
    const TreeNode& nd = tree.node(idx);
    if (!nd.spine(n)) continue;
    ++spine_nodes;
    if (nd.i - 1 <= 1) {
      compute_node_poly(tree, idx, *bare, &mod);
      EXPECT_EQ(tree.node(idx).poly, full->level(nd.i - 1));
    } else {
      EXPECT_THROW(compute_node_poly(tree, idx, *bare, &mod), InvalidArgument)
          << "[" << nd.i << ", " << n << "]";
    }
  }
  EXPECT_GE(spine_nodes, 3);
}

// --- multimodular tree polynomials ------------------------------------------

TEST(ModularCombineTest, SequentialTreeMatchesExactTree) {
  Prng rng(33);
  const auto input = paper_input(10, rng);
  const RootFinderConfig base;
  const auto exact = find_real_roots(input.poly, base);
  RootFinderConfig mod = base;
  mod.modular = forced_on();
  const auto fast = find_real_roots(input.poly, mod);
  EXPECT_EQ(exact.roots, fast.roots);
  EXPECT_EQ(exact.multiplicities, fast.multiplicities);
}

// --- end-to-end bit-identity ------------------------------------------------

TEST(ModularEndToEnd, RootReportsBitIdenticalAcrossThreads) {
  // Seed 99 matches test_parallel.cpp: these workloads are known to stay
  // on the parallel fast path (squarefree, normal sequences).
  Prng rng(99);
  std::vector<Poly> inputs;
  inputs.push_back(wilkinson(12));
  inputs.push_back(paper_input(10, rng).poly);  // Berkowitz charpoly
  inputs.push_back(random_jacobi_poly(14, 6, rng));

  // Full reports, IntervalStats included: at mu 24 the sign-only probes
  // of the modular runs are certified, at mu 256 every point is wider
  // than the certified evaluator's multiplier and falls back.
  for (const Poly& p : inputs) {
    for (std::size_t mu : {24u, 256u}) {
      RootFinderConfig cfg;
      cfg.mu_bits = mu;
      const auto exact = find_real_roots(p, cfg);
      const std::string where =
          "n=" + std::to_string(p.degree()) + ", mu=" + std::to_string(mu);

      RootFinderConfig mod = cfg;
      mod.modular = forced_on();
      test::expect_same_report(exact, find_real_roots(p, mod),
                               "sequential, " + where);

      ParallelConfig pc;
      for (int threads : {1, 2, 8}) {
        pc.num_threads = threads;
        const auto par = find_real_roots_parallel(p, mod, pc);
        EXPECT_FALSE(par.used_sequential_fallback) << where;
        test::expect_same_report(
            exact, par.report,
            where + ", threads=" + std::to_string(threads));
      }
    }
  }
}

// --- the mod-p verifier -----------------------------------------------------

TEST(VerifyModP, AcceptsTrueSequenceRejectsCorrupted) {
  Prng rng(55);
  const Poly f0 = random_poly(18, 30, rng);
  RemainderSequence rs = compute_remainder_sequence(f0);
  const std::uint64_t p = modular::nth_modulus(0);
  EXPECT_TRUE(verify_remainder_sequence_mod(rs, p));

  // Corrupt one interior coefficient of F_3.
  std::vector<BigInt> c = rs.F[3].coeffs();
  c[1] += BigInt(1);
  rs.F[3] = Poly(std::move(c));
  std::string why;
  EXPECT_FALSE(verify_remainder_sequence_mod(rs, p, &why));
  EXPECT_FALSE(why.empty());
}

TEST(VerifyModP, MultimodularOutputPassesVerifier) {
  Prng rng(56);
  const Poly f0 = random_poly(32, 25, rng);
  const auto fast =
      modular::compute_remainder_sequence_multimodular(f0, forced_on());
  ASSERT_TRUE(fast.has_value());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(verify_remainder_sequence_mod(*fast, modular::nth_modulus(i)));
  }
}

}  // namespace
}  // namespace pr
