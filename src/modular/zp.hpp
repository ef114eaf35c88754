// Word-sized prime fields for the multimodular subsystem.
//
// A PrimeField wraps one odd prime p < 2^62 and performs all arithmetic in
// Montgomery form (residues scaled by R = 2^64 mod p), so a field
// multiplication is two 64x64->128 multiplies and no hardware division.
// Residues are carried in the opaque Zp wrapper to keep Montgomery-domain
// values from mixing with canonical ones.
//
// The subsystem draws its moduli from a single deterministic table -- the
// primes p == 1 (mod 2^20) immediately below 2^62, in decreasing order --
// so any two runs (any thread count, any machine) agree on which prime
// "slot i" denotes.  The congruence guarantees every table prime admits
// radix-2 number-theoretic transforms up to length 2^20 (modular/ntt.hpp);
// each entry also records v_2(p-1) and the smallest quadratic non-residue,
// from which the NTT derives its roots of unity deterministically.
// Primality is established by a deterministic Miller-Rabin check that is
// exact for all 64-bit inputs.
//
// None of the operations here report to the instr OpCounts: field ops are
// single-word arithmetic, not multi-precision operations, and counting them
// as BigInt multiplications would distort the paper's Figures 2-7 counter
// validation.  The modular layer has its own counters (instr/counters.hpp,
// ModularCounts).
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "bigint/bigint.hpp"

namespace pr::modular {

/// A residue in Montgomery form (value * 2^64 mod p).  Only meaningful
/// together with the PrimeField that produced it.
struct Zp {
  std::uint64_t v = 0;

  friend bool operator==(Zp a, Zp b) { return a.v == b.v; }
  friend bool operator!=(Zp a, Zp b) { return a.v != b.v; }
};

/// The Montgomery constants of one PrimeField as plain words, for the
/// SIMD kernel layer (modular/simd/): vector kernels broadcast these into
/// lanes and must agree bit-for-bit with the member-function arithmetic,
/// so both are derived from the same init().
struct MontCtx {
  std::uint64_t p = 0;     ///< the odd prime, below 2^63
  std::uint64_t ninv = 0;  ///< -p^{-1} mod 2^64
  std::uint64_t r2 = 0;    ///< 2^128 mod p
  std::uint64_t one = 0;   ///< 2^64 mod p (Montgomery form of 1)
};

class PrimeField {
 public:
  /// p must be an odd prime below 2^63 (checked).
  explicit PrimeField(std::uint64_t p);

  /// Construction without the Miller-Rabin certificate, for primes already
  /// known good (the deterministic table, or forced primes validated at
  /// config intake).  The check costs ~650 hardware-division mulmods; paid
  /// once per prime per basis it dominated small CRT bases.  Structural
  /// requirements (odd, below 2^63) are still enforced; feeding a genuine
  /// composite breaks field arithmetic silently, so every call site must be
  /// able to name the validation it relies on.
  static PrimeField trusted(std::uint64_t p) {
    return PrimeField(p, TrustedTag{});
  }

  std::uint64_t prime() const { return p_; }
  /// The Montgomery constants, for the SIMD kernels (modular/simd/).
  MontCtx ctx() const { return MontCtx{p_, ninv_, r2_, one_}; }
  /// floor(log2 p): the number of bits a product of moduli is guaranteed
  /// to gain per prime (used by the CRT prefix accounting).
  unsigned floor_log2() const { return floor_log2_; }

  Zp zero() const { return Zp{0}; }
  Zp one() const { return Zp{one_}; }
  bool is_zero(Zp a) const { return a.v == 0; }

  /// Canonical residue of x (x may be >= p).
  Zp from_u64(std::uint64_t x) const {
    return Zp{mont_mul(x % p_, r2_)};
  }
  Zp from_int(std::int64_t x) const {
    const Zp m = from_u64(static_cast<std::uint64_t>(x < 0 ? -x : x));
    return x < 0 ? neg(m) : m;
  }
  /// Residue of a signed BigInt, division-free: a Horner pass over the
  /// limbs using one Montgomery shift + one Montgomery conversion per limb.
  Zp reduce(const BigInt& x) const;

  /// Canonical residue in [0, p) (leaves the Montgomery domain).
  std::uint64_t to_u64(Zp a) const { return redc(a.v); }

  Zp add(Zp a, Zp b) const {
    std::uint64_t s = a.v + b.v;  // < 2^63 + 2^63, no overflow
    if (s >= p_) s -= p_;
    return Zp{s};
  }
  Zp sub(Zp a, Zp b) const {
    return Zp{a.v >= b.v ? a.v - b.v : a.v + p_ - b.v};
  }
  Zp neg(Zp a) const { return Zp{a.v == 0 ? 0 : p_ - a.v}; }
  Zp mul(Zp a, Zp b) const { return Zp{mont_mul(a.v, b.v)}; }

  Zp pow(Zp base, std::uint64_t e) const;
  /// a^(p-2); precondition a != 0 (checked).
  Zp inv(Zp a) const;

  /// Garner helper: `raw` * value(w) mod p for a canonical (non-Montgomery)
  /// raw operand and a Montgomery one -- the scale factors cancel, so one
  /// mont_mul yields the canonical product directly.
  std::uint64_t mul_raw(std::uint64_t raw, Zp w) const {
    return mont_mul(raw, w.v);
  }

  /// a * 2^64 mod p (one Montgomery multiply by 2^128).
  Zp shift64(Zp a) const { return Zp{mont_mul(a.v, r2_)}; }

  /// Folds a lazily accumulated value carry*2^128 + hi*2^64 + lo (carry
  /// below 2^32) to its canonical residue, division-free.  The _shr64 form
  /// additionally divides by the Montgomery radix 2^64 -- exactly what a
  /// dot product of canonical values against Montgomery-form weights needs,
  /// since each raw 64x64->128 product carries one surplus factor of 2^64.
  std::uint64_t fold192_shr64(std::uint64_t lo, std::uint64_t hi,
                              std::uint64_t carry) const {
    const unsigned __int128 u =
        (static_cast<unsigned __int128>(carry) << 64) + hi + redc(lo);
    return mont_mul(redc(u), r2_);
  }
  std::uint64_t fold192(std::uint64_t lo, std::uint64_t hi,
                        std::uint64_t carry) const {
    return mont_mul(fold192_shr64(lo, hi, carry), r2_);
  }

 private:
  struct TrustedTag {};
  PrimeField(std::uint64_t p, TrustedTag);
  void init();  // Montgomery constants from p_ (p_ odd, below 2^63)

  std::uint64_t p_;
  std::uint64_t ninv_;  // -p^{-1} mod 2^64
  std::uint64_t r2_;    // 2^128 mod p
  std::uint64_t one_;   // 2^64 mod p (Montgomery form of 1)
  unsigned floor_log2_;

  std::uint64_t redc(unsigned __int128 t) const {
    const std::uint64_t m = static_cast<std::uint64_t>(t) * ninv_;
    const std::uint64_t u = static_cast<std::uint64_t>(
        (t + static_cast<unsigned __int128>(m) * p_) >> 64);
    return u >= p_ ? u - p_ : u;
  }
  std::uint64_t mont_mul(std::uint64_t a, std::uint64_t b) const {
    return redc(static_cast<unsigned __int128>(a) * b);
  }
};

/// Three-word accumulator for sums of raw 64x64->128 products: the lazy
/// form of a Montgomery dot product.  Accumulating the wide products and
/// folding once (PrimeField::fold192*) replaces one dependent Montgomery
/// reduction per term with one pipelined wide multiply per term -- the
/// difference between the CRT kernels being reduction-bound and
/// multiply-bound.  Holds ~2^32 terms of (64-bit word) x (residue < 2^62)
/// products without overflowing the fold precondition.
struct Acc192 {
  std::uint64_t lo = 0, hi = 0, carry = 0;

  void add(std::uint64_t a, std::uint64_t b) {
    const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
    const std::uint64_t tl = static_cast<std::uint64_t>(t);
    std::uint64_t th = static_cast<std::uint64_t>(t >> 64);
    lo += tl;
    th += (lo < tl);  // th < 2^60, the carry bit cannot overflow it
    hi += th;
    carry += (hi < th);
  }
};

/// Division-free BigInt -> Zp reduction against a cached table of limb-base
/// powers: one raw multiply-accumulate per limb plus a single fold, versus
/// the two dependent Montgomery multiplies per limb of the Horner form in
/// PrimeField::reduce.  Worth carrying whenever one field reduces many
/// multi-limb values (the image transforms reduce every input coefficient
/// at every prime).  Not thread-safe; keep one per worker per field.
class LimbReducer {
 public:
  explicit LimbReducer(const PrimeField& f) : f_(f) {}

  const PrimeField& field() const { return f_; }
  Zp reduce(const BigInt& x);

 private:
  const PrimeField& f_;
  std::vector<Zp> pow_;  // pow_[j]: Montgomery form of 2^{64 j}
};

/// Deterministic Miller-Rabin, exact for every n < 2^64.
bool is_prime_u64(std::uint64_t n);

/// One entry of the deterministic modulus table.  `two_adic` is
/// s = v_2(p - 1) (>= 20 by construction: the table only admits
/// p == 1 mod 2^20), and `witness` is the smallest a >= 2 with
/// a^((p-1)/2) == -1 (mod p) -- a quadratic non-residue, so
/// a^((p-1)/2^s) generates the full 2-Sylow subgroup of Z_p^*, which is
/// exactly the root-of-unity supply a radix-2 NTT needs.  (A full
/// primitive root would require factoring p - 1; the 2-Sylow generator is
/// computable from the witness alone and is all the transforms use.)
struct NttModulus {
  std::uint64_t p = 0;
  unsigned two_adic = 0;
  std::uint64_t witness = 0;
};

/// The i-th modulus of the deterministic table: the primes p == 1
/// (mod 2^20) below 2^62 in decreasing order (nth_modulus(0) is the
/// largest such prime).  The table grows lazily and is safe to call from
/// any thread.
std::uint64_t nth_modulus(std::size_t i);

/// Full table entry for slot i (prime, 2-adic order, non-residue witness).
/// Returned by value: the lazily grown backing table may reallocate.
NttModulus nth_modulus_info(std::size_t i);

/// Smallest a >= 2 with a^((p-1)/2) == -1 (mod p), for an odd prime p.
/// Deterministic and witness-search cheap (the first few integers contain
/// a non-residue for every prime; Euler's criterion certifies it exactly).
/// Used by the table generator and exposed so tests and the NTT layer can
/// re-derive the stored witness independently.
std::uint64_t find_two_adic_witness(std::uint64_t p);

}  // namespace pr::modular
