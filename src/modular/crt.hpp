// Chinese remaindering and the coefficient bounds that size it.
//
// CrtBasis performs Garner's mixed-radix reconstruction over a fixed,
// ordered list of pairwise-distinct primes.  All per-pair constants are
// precomputed at construction:
//
//   w[j][i] = (p_0 * ... * p_{i-1}) mod p_j   (Montgomery form)
//   inv[j]  = (p_0 * ... * p_{j-1})^{-1} mod p_j
//
// so recovering one value from k residues costs ~k^2/2 raw 64x64->128
// multiply-accumulates for the mixed-radix digits (lazily accumulated and
// folded once per digit, see Acc192) plus ~k^2/2 word multiplications for
// the final BigInt Horner assembly -- no multi-precision division at all,
// and no per-term Montgomery reduction.  Reconstruction is symmetric: the
// result is the unique representative in (-M/2, M/2) of the residue
// system (M odd, so no tie exists), which is what makes CRT of signed
// subresultant coefficients exact.
//
// The symmetric lift reads the digits, never M itself: floor(M/2) has
// every digit (p_i - 1)/2, so a value is above it exactly when its digits,
// most significant first, are; and M - 1 - x has the digits p_i - 1 - d_i.
// The basis therefore stores no prefix product, which with their halves
// would take twice the memory of w (w is 7.9 MiB for the 1,437 primes of
// a degree-128 Jacobi tree), and keeps the k(k-1)/2 words of w in one
// block: a large short-lived table in many pieces stays behind, free, in
// the malloc arena of the worker thread that built it.
//
// The prime-count decision is a Hadamard bound on subresultant
// coefficients: F_i in the normal remainder sequence equals +/- the
// subresultant S_{n-i} of (F_0, F_1), whose coefficients are determinants
// with i-1 rows of F_0 coefficients and i rows of F_1 coefficients, hence
//
//   |coeff of F_i| <= ||F_0||_2^{i-1} * ||F_1||_2^i .
//
// PrsBound computes the two norms exactly (as BigInt sums of squares) and
// exposes the per-index bit bound; callers take enough leading primes that
// the product exceeds 2^{bits+2} (one bit for sign, one for slack).
//
// The bit accounting uses each prime's actual floor(log2 p) (prefix sums
// below), never an assumed magnitude; the table primes (p == 1 mod 2^20,
// zp.hpp) all exceed 2^61 for any realistic prefix, each contributing 61
// guaranteed bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "modular/zp.hpp"
#include "poly/poly.hpp"

namespace pr::modular {

class CrtBasis {
 public:
  /// primes must be pairwise distinct odd primes below 2^62.
  explicit CrtBasis(std::vector<std::uint64_t> primes);

  std::size_t size() const { return fields_.size(); }
  const PrimeField& field(std::size_t i) const { return fields_[i]; }

  /// Smallest k with sum_{i<k} floor(log2 p_i) >= bits + 2 (so the prime
  /// product strictly exceeds 2^{bits+1}, covering the symmetric range
  /// [-2^bits, 2^bits]).  Throws InternalError if the basis is too small.
  std::size_t primes_for_bits(std::size_t bits) const;
  /// True when the whole basis covers `bits` (primes_for_bits succeeds).
  bool covers_bits(std::size_t bits) const {
    return prefix_bits_.back() >= bits + 2;
  }

  /// Reconstructs the unique x in (-M_k/2, M_k/2) with
  /// x == residues[j] (mod p_j) for j < k, where M_k = p_0*...*p_{k-1}
  /// and residues are canonical (non-Montgomery) values.  Thread-safe.
  BigInt reconstruct(const std::uint64_t* residues, std::size_t k) const;

  /// Batched Garner digit extraction over `count` independent residue
  /// systems sharing this basis, in the interleaved prime-major layout:
  /// residues[j * rstride + c] is the canonical residue of value c mod
  /// p_j, digits[j * dstride + c] receives mixed-radix digit j of value
  /// c.  The per-value results are bit-identical to k calls of the
  /// single-value path; the batch form exists so the O(k^2) digit stage
  /// runs lane-parallel across values (SIMD kernel garner_stage).
  /// Requires rstride, dstride >= count.  Thread-safe.
  void garner_digits_batch(const std::uint64_t* residues, std::size_t rstride,
                           std::size_t k, std::uint64_t* digits,
                           std::size_t dstride, std::size_t count) const;

  /// Batched symmetric reconstruct: out[c] receives the unique
  /// representative in (-M_k/2, M_k/2) of value c.  Same layout contract
  /// as garner_digits_batch; bit-identical to count calls of
  /// reconstruct().
  void reconstruct_batch(const std::uint64_t* residues, std::size_t rstride,
                         std::size_t k, BigInt* out, std::size_t count) const;

 private:
  // Garner mixed-radix digit extraction (digits[0..k)); the symmetric
  // value of a digit stream, which rewrites the digits of a value above
  // M/2 in place and assembles it in buf (k limbs); and the fused Horner
  // limb assembly, which returns the number of limbs written (<= k).  The
  // last two serve the single and batched forms, so a digit stream may be
  // strided (batch layouts store digit i of a value at digits[i * stride]).
  void garner_digits(const std::uint64_t* residues, std::size_t k,
                     std::uint64_t* digits) const;
  BigInt lift_digits(std::uint64_t* digits, std::size_t stride,
                     std::size_t k, std::uint64_t* buf) const;
  std::size_t horner_limbs(const std::uint64_t* digits, std::size_t stride,
                           std::size_t k, std::uint64_t* buf) const;

  /// Row j of w: j entries, w[j][0] .. w[j][j-1].
  const Zp* w_row(std::size_t j) const { return w_.data() + j * (j - 1) / 2; }

  std::vector<PrimeField> fields_;
  // Rows 1 .. k-1 of w back to back: w[j][i] = Montgomery form of
  // (p_0...p_{i-1}) mod p_j, 0 <= i < j, at w_row(j)[i].
  std::vector<Zp> w_;
  // inv_[j]: Montgomery form of (p_0...p_{j-1})^{-1} mod p_j.
  std::vector<Zp> inv_;
  std::vector<std::size_t> prefix_bits_;  // prefix sums of floor(log2 p)
  // product_bits_[k]: bit length of p_0*...*p_{k-1}, the size of the
  // subtraction a negative lift is counted as.
  std::vector<std::size_t> product_bits_;
};

/// Exact-norm Hadamard bound for the subresultant coefficients of the
/// remainder sequence of f0 (see file comment).
class PrsBound {
 public:
  PrsBound(const Poly& f0, const Poly& f1);

  /// Upper bound on bits of |any coefficient of F_i| (i >= 1).
  std::size_t bits_for(int i) const;

 private:
  std::size_t half_b0_;  // ceil(bits(||F_0||_2^2) / 2) >= log2 ||F_0||_2
  std::size_t half_b1_;
};

/// Bound on bits of |any coefficient| of a product a * b of integer
/// polynomials: maxbits(a) + maxbits(b) + ceil(log2(min_len)) where
/// min_len is the shorter operand's coefficient count.
std::size_t product_coeff_bits(const Poly& a, const Poly& b);

}  // namespace pr::modular
