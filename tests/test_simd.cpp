// Differential tests for the SIMD mod-p kernel layer (modular/simd/).
//
// The load-bearing property is the determinism contract: every vector
// kernel must produce BIT-IDENTICAL results to the portable scalar table
// on the same inputs -- per kernel over several table primes and a sweep
// of lengths (vector bodies and scalar tails both get hit), and end to
// end through the batched Garner reconstruction with each available ISA
// forced.  The suite runs under ASan/UBSan in the sanitizer CI leg
// unchanged, which is what certifies the intrinsics paths (unaligned
// loads, lane extraction) are not relying on UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "modular/crt.hpp"
#include "modular/simd/simd.hpp"
#include "modular/zp.hpp"
#include "support/prng.hpp"

namespace pr::modular::simd {
namespace {

/// Restores the startup ISA selection on scope exit, so a failing test
/// cannot leak a forced table into the rest of the suite.
struct IsaGuard {
  ~IsaGuard() { reset_forced_isa(); }
};

std::vector<Isa> vector_isas() {
  std::vector<Isa> out;
  for (Isa isa : available_isas()) {
    if (isa != Isa::kScalar) out.push_back(isa);
  }
  return out;
}

std::vector<Zp> random_residues(std::size_t n, const PrimeField& f,
                                Prng& rng) {
  std::vector<Zp> v(n);
  for (auto& x : v) x = f.from_u64(rng.next());
  return v;
}

const std::size_t kLens[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 20,
                             31, 32, 33, 64, 100, 128, 256, 512};

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_NE(kernels_for(Isa::kScalar), nullptr);
  EXPECT_EQ(kernels_for(Isa::kScalar)->isa, Isa::kScalar);
  EXPECT_FALSE(available_isas().empty());
  EXPECT_EQ(available_isas().front(), Isa::kScalar);
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(isa_name(Isa::kAvx512), "avx512");
}

TEST(SimdDispatch, ForceIsaRoundTrips) {
  IsaGuard guard;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa)) << isa_name(isa);
    EXPECT_EQ(active_isa(), isa);
  }
  reset_forced_isa();
  // The startup pick is one of the available tables.
  bool found = false;
  for (Isa isa : available_isas()) found = found || (active_isa() == isa);
  EXPECT_TRUE(found);
}

TEST(SimdKernels, GarnerStageMatchesScalar) {
  Prng rng(13);
  const Kernels& ref = scalar_kernels();
  for (std::size_t pi = 0; pi < 4; ++pi) {
    const PrimeField f = PrimeField::trusted(nth_modulus(pi));
    const MontCtx ctx = f.ctx();
    for (Isa isa : vector_isas()) {
      const Kernels* vec = kernels_for(isa);
      ASSERT_NE(vec, nullptr);
      for (std::size_t count :
           {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
            std::size_t{8}, std::size_t{9}, std::size_t{16}, std::size_t{33},
            std::size_t{100}}) {
        for (std::size_t j : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}}) {
          const std::size_t stride = count;
          std::vector<std::uint64_t> digits((j + 1) * stride);
          for (auto& d : digits) d = rng.next() % f.prime();
          const std::vector<Zp> w = random_residues(j, f, rng);
          const Zp inv = f.from_u64(rng.next());
          std::vector<std::uint64_t> residues(count);
          for (auto& r : residues) r = rng.next() % f.prime();
          std::vector<std::uint64_t> o1(count), o2(count);
          ref.garner_stage(digits.data(), stride, j, w.data(), inv,
                           residues.data(), o1.data(), count, ctx);
          vec->garner_stage(digits.data(), stride, j, w.data(), inv,
                            residues.data(), o2.data(), count, ctx);
          for (std::size_t c = 0; c < count; ++c) {
            ASSERT_EQ(o1[c], o2[c])
                << "garner_stage " << isa_name(isa) << " count=" << count
                << " j=" << j << " c=" << c;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Acc192DotMatchesSequential) {
  Prng rng(14);
  const PrimeField f = PrimeField::trusted(nth_modulus(0));
  for (Isa isa : vector_isas()) {
    const Kernels* vec = kernels_for(isa);
    ASSERT_NE(vec, nullptr);
    for (std::size_t n : kLens) {
      // Worst-case words (all-ones limbs stress every carry chain) mixed
      // with random ones.
      std::vector<std::uint64_t> a(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = (i % 3 == 0) ? ~std::uint64_t{0} : rng.next();
      }
      const std::vector<Zp> b = random_residues(n, f, rng);
      Acc192 s1, s2;
      s1.lo = s2.lo = rng.next();
      s1.hi = s2.hi = rng.next();
      s1.carry = s2.carry = rng.next() & 0xff;
      for (std::size_t i = 0; i < n; ++i) s1.add(a[i], b[i].v);
      vec->acc192_dot(a.data(), b.data(), n, s2);
      ASSERT_EQ(s1.lo, s2.lo) << "acc192 lo " << isa_name(isa) << " n=" << n;
      ASSERT_EQ(s1.hi, s2.hi) << "acc192 hi " << isa_name(isa) << " n=" << n;
      ASSERT_EQ(s1.carry, s2.carry)
          << "acc192 carry " << isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdEndToEnd, BatchedReconstructionMatchesSingle) {
  IsaGuard guard;
  Prng rng(16);
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{5}, std::size_t{8}}) {
    std::vector<std::uint64_t> primes(k);
    for (std::size_t i = 0; i < k; ++i) primes[i] = nth_modulus(i);
    const CrtBasis basis(primes);
    const std::size_t count = 37;  // odd: exercises every vector tail
    std::vector<std::uint64_t> residues(k * count);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < count; ++c) {
        residues[j * count + c] = rng.next() % primes[j];
      }
    }
    // Single-value scalar reference.
    ASSERT_TRUE(force_isa(Isa::kScalar));
    std::vector<BigInt> want_big(count);
    {
      std::vector<std::uint64_t> rj(k);
      for (std::size_t c = 0; c < count; ++c) {
        for (std::size_t j = 0; j < k; ++j) rj[j] = residues[j * count + c];
        want_big[c] = basis.reconstruct(rj.data(), k);
      }
    }
    for (Isa isa : available_isas()) {
      ASSERT_TRUE(force_isa(isa));
      std::vector<BigInt> got_big(count);
      basis.reconstruct_batch(residues.data(), count, k, got_big.data(),
                              count);
      for (std::size_t c = 0; c < count; ++c) {
        ASSERT_EQ(want_big[c], got_big[c])
            << "reconstruct_batch " << isa_name(isa) << " k=" << k
            << " c=" << c;
      }
    }
  }
}

}  // namespace
}  // namespace pr::modular::simd
