#include "modular/crt.hpp"

#include <algorithm>
#include <string>

#include "instr/counters.hpp"
#include "modular/simd/simd.hpp"
#include "support/error.hpp"

namespace pr::modular {

namespace {

std::size_t ceil_log2(std::size_t n) {
  std::size_t b = 0;
  while ((std::size_t{1} << b) < n) ++b;
  return b;
}

}  // namespace

CrtBasis::CrtBasis(std::vector<std::uint64_t> primes) {
  check_arg(!primes.empty(), "CrtBasis: need at least one prime");
  const std::size_t k = primes.size();
  {
    std::vector<std::uint64_t> sorted = primes;
    std::sort(sorted.begin(), sorted.end());
    check_arg(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end(),
              "CrtBasis: duplicate prime");
  }
  fields_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    // Callers draw from nth_modulus (prime by construction) or from forced
    // primes validated at selection, so skip the per-prime Miller-Rabin.
    fields_.push_back(PrimeField::trusted(primes[i]));
  }

  prefix_bits_.assign(k + 1, 0);
  for (std::size_t i = 0; i < k; ++i) {
    prefix_bits_[i + 1] = prefix_bits_[i] + fields_[i].floor_log2();
  }

  // Prefix products as word x limbs sweeps (as in horner_limbs): building
  // a basis is set-up, not arithmetic of the algorithm, so it reports
  // nothing to the OpCounts.
  products_.assign(k + 1, BigInt(1));
  half_products_.assign(k + 1, BigInt());
  std::vector<std::uint64_t> prod{1};
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t carry = 0;
    for (std::uint64_t& limb : prod) {
      const unsigned __int128 t =
          static_cast<unsigned __int128>(limb) * primes[i] + carry;
      limb = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    if (carry != 0) prod.push_back(carry);
    products_[i + 1] = BigInt::from_limbs(prod.data(), prod.size(), false);
    half_products_[i + 1] = products_[i + 1] >> 1;
  }

  w_.resize(k);
  inv_.assign(k, Zp{});
  for (std::size_t j = 1; j < k; ++j) {
    const PrimeField& f = fields_[j];
    w_[j].assign(j, Zp{});
    w_[j][0] = f.one();  // P_0 == 1 (empty prefix product)
    Zp m = f.one();
    for (std::size_t i = 0; i < j; ++i) {
      m = f.mul(m, f.from_u64(primes[i]));  // m = (p_0...p_i) mod p_j
      if (i + 1 < j) w_[j][i + 1] = m;
    }
    inv_[j] = f.inv(m);
  }
}

std::size_t CrtBasis::primes_for_bits(std::size_t bits) const {
  const std::size_t need = bits + 2;
  for (std::size_t k = 1; k <= fields_.size(); ++k) {
    if (prefix_bits_[k] >= need) return k;
  }
  throw InternalError("CrtBasis: basis too small for " +
                      std::to_string(bits) + " bits");
}

void CrtBasis::garner_digits(const std::uint64_t* residues, std::size_t k,
                             std::uint64_t* digits) const {
  digits[0] = residues[0];
  for (std::size_t j = 1; j < k; ++j) {
    const PrimeField& f = fields_[j];
    const std::uint64_t p = f.prime();
    // s = sum_{i<j} d_i * P_i mod p_j: raw 128-bit multiply-accumulate of
    // the canonical digits against the Montgomery-form prefix products,
    // folded once -- the j dependent Montgomery reductions of the
    // schoolbook form collapse into a single fold, which is what makes
    // this loop multiply-bound instead of latency-bound.
    const Zp* w = w_[j].data();
    Acc192 acc;
    simd::active().acc192_dot(digits, w, j, acc);
    const std::uint64_t s = f.fold192_shr64(acc.lo, acc.hi, acc.carry);
    std::uint64_t t = residues[j] + p - s;
    if (t >= p) t -= p;
    digits[j] = f.mul_raw(t, inv_[j]);
  }
}

void CrtBasis::garner_digits_batch(const std::uint64_t* residues,
                                   std::size_t rstride, std::size_t k,
                                   std::uint64_t* digits, std::size_t dstride,
                                   std::size_t count) const {
  check_internal(k >= 1 && k <= fields_.size() && rstride >= count &&
                     dstride >= count,
                 "CrtBasis::garner_digits_batch: bad layout");
  std::copy(residues, residues + count, digits);
  const simd::Kernels& kern = simd::active();
  for (std::size_t j = 1; j < k; ++j) {
    // Row j for all `count` values at once: the lane-parallel form of the
    // single-value loop above (same fold, same conditional subtract).
    kern.garner_stage(digits, dstride, j, w_[j].data(), inv_[j],
                      residues + j * rstride, digits + j * dstride, count,
                      fields_[j].ctx());
  }
}

std::size_t CrtBasis::horner_limbs(const std::uint64_t* digits,
                                   std::size_t stride, std::size_t k,
                                   std::uint64_t* buf) const {
  // Mixed-radix Horner assembly x = (...(d_{k-1} p_{k-2} + d_{k-2})...),
  // fused in a raw limb buffer: one multiply-add sweep per digit.  The
  // result magnitude is below the prime product < 2^{62k}, so k limbs
  // always suffice.  `stride` walks the digit stream (batch layouts keep
  // one value's digits a column apart), so no gather copy is needed.
  buf[0] = digits[(k - 1) * stride];
  std::size_t used = 1;
  for (std::size_t i = k - 1; i-- > 0;) {
    const std::uint64_t p = fields_[i].prime();
    std::uint64_t carry = digits[i * stride];
    for (std::size_t l = 0; l < used; ++l) {
      const unsigned __int128 t =
          static_cast<unsigned __int128>(buf[l]) * p + carry;
      buf[l] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    if (carry != 0) buf[used++] = carry;
  }
  return used;
}

BigInt CrtBasis::reconstruct(const std::uint64_t* residues,
                             std::size_t k) const {
  check_internal(k >= 1 && k <= fields_.size(),
                 "CrtBasis::reconstruct: bad prime count");
  thread_local std::vector<std::uint64_t> digits;
  digits.resize(k);
  garner_digits(residues, k, digits.data());
  thread_local std::vector<std::uint64_t> buf;
  buf.resize(k);
  const std::size_t used = horner_limbs(digits.data(), 1, k, buf.data());
  BigInt x = BigInt::from_limbs(buf.data(), used, false);
  if (x > half_products_[k]) x -= products_[k];
  instr::on_modular_crt(1, x.limb_count());
  return x;
}

void CrtBasis::reconstruct_batch(const std::uint64_t* residues,
                                 std::size_t rstride, std::size_t k,
                                 BigInt* out, std::size_t count) const {
  check_internal(k >= 1 && k <= fields_.size(),
                 "CrtBasis::reconstruct_batch: bad prime count");
  if (count == 0) return;
  thread_local std::vector<std::uint64_t> digits;
  digits.resize(k * count);
  garner_digits_batch(residues, rstride, k, digits.data(), count, count);
  thread_local std::vector<std::uint64_t> buf;
  buf.resize(k);
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t used = horner_limbs(digits.data() + c, count, k,
                                          buf.data());
    BigInt x = BigInt::from_limbs(buf.data(), used, false);
    if (x > half_products_[k]) x -= products_[k];
    instr::on_modular_crt(1, x.limb_count());
    out[c] = std::move(x);
  }
}

PrsBound::PrsBound(const Poly& f0, const Poly& f1) {
  const auto half_norm_bits = [](const Poly& p) {
    BigInt norm2;
    for (const BigInt& c : p.coeffs()) norm2.addmul(c, c);
    return (norm2.bit_length() + 1) / 2;  // >= log2 ||p||_2
  };
  half_b0_ = half_norm_bits(f0);
  half_b1_ = half_norm_bits(f1);
}

std::size_t PrsBound::bits_for(int i) const {
  check_arg(i >= 1, "PrsBound::bits_for: i >= 1");
  const auto ui = static_cast<std::size_t>(i);
  // |coeff of F_i| <= ||F_0||_2^{i-1} ||F_1||_2^i, plus slack for the
  // ceil-of-half norm estimates.
  return (ui - 1) * half_b0_ + ui * half_b1_ + 8;
}

std::size_t product_coeff_bits(const Poly& a, const Poly& b) {
  if (a.is_zero() || b.is_zero()) return 1;
  const std::size_t terms = std::min(a.coeffs().size(), b.coeffs().size());
  return a.max_coeff_bits() + b.max_coeff_bits() + ceil_log2(terms) + 1;
}

}  // namespace pr::modular
