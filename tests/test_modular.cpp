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
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "instr/phase.hpp"
#include "layer_replay.hpp"
#include "modular/crt.hpp"
#include "modular/modular_prs.hpp"
#include "modular/polyzp.hpp"
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
    // NTT-friendly by construction: 2-adic order >= 20.
    EXPECT_EQ(p % (1ull << 20), 1u) << p;
    for (std::uint64_t q : seen) EXPECT_NE(p, q);
    seen.push_back(p);
  }
  // Deterministic: asking again returns the same primes.
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(modular::nth_modulus(i), seen[i]);
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
  // operation counts.  (BigInt storage still allocates the prefix
  // products; the allocation counters are outside the cost model.)
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

ModularConfig forced_on(int threads = 1) {
  ModularConfig cfg;
  cfg.enabled = true;
  cfg.num_threads = threads;
  cfg.min_degree = 2;  // force the fast path even on small inputs
  return cfg;
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
    for (int threads : {1, 4}) {
      auto fast = modular::compute_remainder_sequence_multimodular(
          f0, forced_on(threads));
      ASSERT_TRUE(fast.has_value()) << "degree " << degree;
      expect_sequences_equal(exact, *fast, "sweep");
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
/// kSmallPrime: lc(F_2) = (n-1)*a_{n-1}^2 - 2n*a_{n-2} for monic f0, so
/// pick a_{n-1} = 1 and a_{n-2} = (n-1) * inv(2n) mod kSmallPrime.
Poly crafted_bad_prime_input(int n, Prng& rng) {
  const PrimeField f(kSmallPrime);
  const std::uint64_t t = f.to_u64(
      f.mul(f.from_u64(static_cast<std::uint64_t>(n - 1)),
            f.inv(f.from_u64(static_cast<std::uint64_t>(2 * n)))));
  std::vector<BigInt> c(static_cast<std::size_t>(n) + 1);
  for (auto& x : c) x = BigInt(rng.range(-9, 9));
  c[static_cast<std::size_t>(n)] = BigInt(1);
  c[static_cast<std::size_t>(n - 1)] = BigInt(1);
  c[static_cast<std::size_t>(n - 2)] = BigInt(static_cast<unsigned long long>(t));
  return Poly(std::move(c));
}

TEST(MultimodularPrs, BadPrimeIsDetectedAndReplaced) {
  Prng rng(21);
  const Poly f0 = crafted_bad_prime_input(32, rng);
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

TEST(MultimodularPrs, BatchAndWaveDeterminismMatrix) {
  Prng rng(0xba7c4);
  // Every scheduling-knob combination -- batched vs per-image tasks, waved
  // vs inline CRT, at 1/2/8 threads -- must reproduce the exact sequence
  // bit for bit: partitioning is scheduling, never arithmetic.
  const std::pair<int, long long> cases[] = {{30, 1000000LL}, {60, 40}};
  for (const auto& [degree, span] : cases) {
    const Poly f0 = random_poly(degree, span, rng);
    const RemainderSequence exact = compute_remainder_sequence(f0);
    for (int threads : {1, 2, 8}) {
      for (bool batch : {false, true}) {
        ModularConfig cfg = forced_on(threads);
        cfg.batch_images = batch;
        cfg.crt_wave_min_work = 1;  // every level fans out into waves
        const auto fast =
            modular::compute_remainder_sequence_multimodular(f0, cfg);
        ASSERT_TRUE(fast.has_value())
            << "degree " << degree << " threads " << threads;
        expect_sequences_equal(exact, *fast, "batch/wave matrix");
      }
    }
  }
}

TEST(MultimodularPrs, ImageBatchSizingCoversEverySlot) {
  Prng rng(0xbb);
  // Degree 26 with wide coefficients: many cheap images, so batching
  // groups them; more workers shrink the batch to keep the pool fed.
  const Poly f0 = random_poly(26, 1000000000000LL, rng);
  ModularConfig cfg = forced_on();
  modular::MultimodularPrs prs(f0, cfg);
  ASSERT_TRUE(prs.worthwhile());
  for (int threads : {1, 2, 8}) {
    const std::size_t b = prs.image_batch(threads);
    ASSERT_GE(b, 1u);
    EXPECT_EQ(prs.num_image_tasks(threads), (prs.num_slots() + b - 1) / b);
  }
  EXPECT_GE(prs.image_batch(1), prs.image_batch(8));
  EXPECT_GT(prs.image_batch(1), 1u) << "cheap images should batch";
  cfg.batch_images = false;
  modular::MultimodularPrs unbatched(f0, cfg);
  EXPECT_EQ(unbatched.image_batch(8), 1u);
  EXPECT_EQ(unbatched.num_image_tasks(1), unbatched.num_slots());
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
      for (PoolPolicy policy :
           {PoolPolicy::kCentralQueue, PoolPolicy::kWorkStealing}) {
        pc.pool_policy = policy;
        for (int threads : {1, 2, 8}) {
          pc.num_threads = threads;
          const auto par = find_real_roots_parallel(p, mod, pc);
          EXPECT_FALSE(par.used_sequential_fallback) << where;
          test::expect_same_report(
              exact, par.report,
              where + ", threads=" + std::to_string(threads) + ", policy=" +
                  (policy == PoolPolicy::kCentralQueue ? "central"
                                                       : "stealing"));
        }
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
