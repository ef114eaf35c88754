// Arbitrary-precision signed integers.
//
// This is the reproduction's substitute for the UNIX `mp` package the paper
// used (Section 3.3).  Like `mp`, it uses the straightforward algorithms
// -- linear-time addition/subtraction and quadratic-time (schoolbook)
// multiplication and division -- because the paper's entire Section 4
// analysis assumes that cost model.
//
// Representation: sign + magnitude.  The magnitude is a LimbStore of
// little-endian 64-bit limbs with no leading zero limb; values that fit in
// a single limb are stored inline (no heap buffer -- the fmpz/GMP-style
// small layout), larger magnitudes live in a heap buffer whose capacity is
// retained across shrinks so in-place loops stop allocating.  Zero is the
// empty store with negative() == false.
//
// Fused kernels: the accumulation patterns that dominate the paper's hot
// paths (Horner steps, the Eq. 18 coefficient recurrence, inner products)
// are exposed as in-place operations -- addmul/submul (a += b*c without a
// temporary), add_shifted/sub_shifted (a += (b << k) without materializing
// the shift), mul_assign -- all writing through a reusable BigInt::Scratch.
// Prefer `a.addmul(b, c)` over `a += b * c` whenever the target persists
// across iterations: the temporary product lands in scratch capacity
// instead of a fresh buffer, and the accumulation reuses a's storage.
//
// Every multiplication, division, and addition reports its operand sizes to
// the instrumentation layer (src/instr/), attributed to the calling
// thread's current phase.  The fused kernels report exactly what their
// composed-operator equivalents would (one mul + one add for addmul), so
// the paper's Figures 2-7 counter validation is representation-independent.
#pragma once

#include <compare>
#include <cstdint>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

#include "bigint/limb_store.hpp"

namespace pr {

class BigInt {
 public:
  using Limb = std::uint64_t;

  /// Reusable temporary buffers for multiplication products and division
  /// workspaces.  Operations that take a Scratch never allocate once its
  /// buffers have warmed up to the operand sizes in play.  Not thread-safe
  /// and not reentrant: one Scratch must not be used by two in-flight
  /// operations.  Overloads without a Scratch parameter use a per-thread
  /// default.
  class Scratch {
   public:
    Scratch() = default;
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

   private:
    friend class BigInt;
    detail::LimbStore prod_;    // fused-kernel product buffer
    detail::LimbStore shift_;   // shift-accumulate staging buffer
    detail::LimbStore q_, r_;   // division quotient/remainder staging
    detail::LimbStore u_, v_;   // normalized dividend/divisor (Knuth D)
  };

  /// Zero.
  BigInt() = default;

  /// Conversions from built-in integers (implicit on purpose: polynomial
  /// coefficients are naturally written as literals in tests/examples).
  BigInt(long long v);                 // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<long long>(v)) {}  // NOLINT
  BigInt(long v) : BigInt(static_cast<long long>(v)) {}  // NOLINT
  explicit BigInt(unsigned long long v);

  /// Parses an optionally signed decimal string ("-123", "42").
  /// Throws InvalidArgument on malformed input.
  static BigInt from_decimal(std::string_view s);

  /// 2^k.
  static BigInt pow2(std::size_t k);

  /// Value from a little-endian limb magnitude (leading zeros allowed;
  /// trimmed).  Lets the multimodular CRT assemble its mixed-radix digits
  /// in a raw limb buffer and convert once, instead of paying a BigInt
  /// multiply-add round trip per digit.
  static BigInt from_limbs(const Limb* limbs, std::size_t n, bool negative);

  // --- observers ---------------------------------------------------------

  bool is_zero() const { return mag_.empty(); }
  bool negative() const { return neg_; }
  /// -1, 0, or +1.
  int signum() const { return is_zero() ? 0 : (neg_ ? -1 : 1); }
  /// True iff |*this| == 1.
  bool is_unit() const { return mag_.size() == 1 && mag_[0] == 1; }
  bool is_one() const { return is_unit() && !neg_; }
  /// True iff the low bit of the magnitude is 0 (zero counts as even).
  bool is_even() const { return mag_.empty() || (mag_[0] & 1) == 0; }

  /// Number of bits in the magnitude; 0 for zero.
  std::size_t bit_length() const;
  /// Bit `i` (0 = least significant) of the magnitude.
  bool bit(std::size_t i) const;
  /// Number of limbs in the magnitude.
  std::size_t limb_count() const { return mag_.size(); }
  /// Limb `i` (little-endian) of the magnitude; precondition
  /// i < limb_count().  Read-only window for the modular subsystem's
  /// division-free residue extraction.
  Limb limb(std::size_t i) const { return mag_[i]; }
  /// Contiguous little-endian limb window (limb_count() limbs); the SIMD
  /// reduction kernels stream it directly.  Valid until the next mutation.
  const Limb* limbs() const { return mag_.data(); }
  /// Canonical residue of the *signed* value in [0, m): single pass over
  /// the limbs, most significant first.  For negative values the result is
  /// the true mathematical residue (m - |v| mod m, reduced), so reductions
  /// of a difference agree with the difference of reductions.  m must be
  /// nonzero (throws DivisionByZero).
  std::uint64_t mod_u64(std::uint64_t m) const;
  /// True iff the magnitude lives in a heap buffer (above 64 bits, or a
  /// retained buffer from an earlier large value).  Exposed for the
  /// representation-boundary tests and allocation diagnostics.
  bool uses_heap_buffer() const { return mag_.is_heap(); }

  /// True iff the value fits in a signed 64-bit integer.
  bool fits_int64() const;
  /// Value as int64; precondition fits_int64().
  std::int64_t to_int64() const;
  /// Approximate value as a double (may overflow to +/-inf).
  double to_double() const;

  std::string to_decimal() const;
  std::string to_hex() const;  ///< e.g. "-0x1f"

  // --- arithmetic --------------------------------------------------------

  BigInt operator-() const&;
  BigInt operator-() &&;
  BigInt abs() const&;
  BigInt abs() &&;
  /// In-place sign flip (no-op on zero).
  BigInt& negate();

  BigInt& operator+=(const BigInt& o);
  BigInt& operator-=(const BigInt& o);
  BigInt& operator*=(const BigInt& o);
  /// Truncated division (rounds toward zero, like C++ integer division).
  BigInt& operator/=(const BigInt& o);
  /// Remainder matching operator/= (same sign as the dividend).
  BigInt& operator%=(const BigInt& o);
  BigInt& operator<<=(std::size_t k);
  /// Right shift of the magnitude (truncation toward zero for negatives).
  BigInt& operator>>=(std::size_t k);

  // Value-returning operators are rvalue-aware: when either operand is a
  // temporary (the common case in expression chains like `a + b - c`),
  // its buffer is reused in place instead of allocating a fresh result.
  friend BigInt operator+(const BigInt& a, const BigInt& b) {
    BigInt r = a;
    r += b;
    return r;
  }
  friend BigInt operator+(BigInt&& a, const BigInt& b) {
    a += b;
    return std::move(a);
  }
  friend BigInt operator+(const BigInt& a, BigInt&& b) {
    b += a;  // commutative: reuse b's buffer
    return std::move(b);
  }
  friend BigInt operator+(BigInt&& a, BigInt&& b) {
    a += b;
    return std::move(a);
  }

  friend BigInt operator-(const BigInt& a, const BigInt& b) {
    BigInt r = a;
    r -= b;
    return r;
  }
  friend BigInt operator-(BigInt&& a, const BigInt& b) {
    a -= b;
    return std::move(a);
  }
  friend BigInt operator-(const BigInt& a, BigInt&& b) {
    b.negate();  // a - b == a + (-b): reuse b's buffer
    b += a;
    return std::move(b);
  }
  friend BigInt operator-(BigInt&& a, BigInt&& b) {
    a -= b;
    return std::move(a);
  }

  friend BigInt operator*(const BigInt& a, const BigInt& b);
  friend BigInt operator*(BigInt&& a, const BigInt& b) {
    a *= b;
    return std::move(a);
  }
  friend BigInt operator*(const BigInt& a, BigInt&& b) {
    b *= a;  // commutative: reuse b's buffer
    return std::move(b);
  }
  friend BigInt operator*(BigInt&& a, BigInt&& b) {
    a *= b;
    return std::move(a);
  }

  friend BigInt operator/(const BigInt& a, const BigInt& b) {
    BigInt r = a;
    r /= b;
    return r;
  }
  friend BigInt operator/(BigInt&& a, const BigInt& b) {
    a /= b;
    return std::move(a);
  }
  friend BigInt operator%(const BigInt& a, const BigInt& b) {
    BigInt r = a;
    r %= b;
    return r;
  }
  friend BigInt operator%(BigInt&& a, const BigInt& b) {
    a %= b;
    return std::move(a);
  }
  friend BigInt operator<<(const BigInt& a, std::size_t k) {
    BigInt r = a;
    r <<= k;
    return r;
  }
  friend BigInt operator<<(BigInt&& a, std::size_t k) {
    a <<= k;
    return std::move(a);
  }
  friend BigInt operator>>(const BigInt& a, std::size_t k) {
    BigInt r = a;
    r >>= k;
    return r;
  }
  friend BigInt operator>>(BigInt&& a, std::size_t k) {
    a >>= k;
    return std::move(a);
  }

  // --- fused kernels ------------------------------------------------------
  // In-place accumulation without intermediate BigInt temporaries.  Each
  // kernel reports the same instrumentation events as its composed
  // equivalent (addmul == one on_mul + one on_add with identical operand
  // bit lengths), so per-phase operation counts are unaffected by fusing.

  /// *this += b * c.  Equivalent to `*this += b * c` but the product goes
  /// through scratch capacity and the sum reuses this value's buffer.
  BigInt& addmul(const BigInt& b, const BigInt& c);
  BigInt& addmul(const BigInt& b, const BigInt& c, Scratch& s);
  /// *this -= b * c.
  BigInt& submul(const BigInt& b, const BigInt& c);
  BigInt& submul(const BigInt& b, const BigInt& c, Scratch& s);
  /// *this += (b << k) without materializing the shifted value.
  BigInt& add_shifted(const BigInt& b, std::size_t k);
  BigInt& add_shifted(const BigInt& b, std::size_t k, Scratch& s);
  /// *this -= (b << k).
  BigInt& sub_shifted(const BigInt& b, std::size_t k);
  BigInt& sub_shifted(const BigInt& b, std::size_t k, Scratch& s);
  /// *this *= o through an explicit scratch (operator*= uses the
  /// per-thread default scratch).
  BigInt& mul_assign(const BigInt& o, Scratch& s);

  /// Truncated division with remainder: a = q*b + r, |r| < |b|,
  /// sign(r) == sign(a) (or r == 0).  Throws DivisionByZero.
  /// q and r must be distinct objects (they may alias a or b).
  static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r);
  static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r,
                     Scratch& s);

  /// Floor division: largest q with q*b <= a (for b > 0).
  static BigInt fdiv(const BigInt& a, const BigInt& b);
  /// Ceiling division: smallest q with q*b >= a (for b > 0).
  static BigInt cdiv(const BigInt& a, const BigInt& b);

  /// Exact division: precondition b | a; verified and enforced (throws
  /// InternalError on violation -- the remainder-sequence recurrences of
  /// the paper guarantee exactness, so a nonzero remainder is a bug).
  static BigInt divexact(const BigInt& a, const BigInt& b);

  // --- comparisons -------------------------------------------------------

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.neg_ == b.neg_ && a.mag_ == b.mag_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  /// Compares magnitudes only: -1, 0, +1.
  static int cmp_abs(const BigInt& a, const BigInt& b);

  // --- misc --------------------------------------------------------------

  friend BigInt gcd(BigInt a, BigInt b);
  /// base^exp (exp >= 0).
  friend BigInt pow(const BigInt& base, unsigned exp);

  friend std::ostream& operator<<(std::ostream& os, const BigInt& v);

 private:
  detail::LimbStore mag_;
  bool neg_ = false;

  void trim();                       // drop leading zero limbs, fix -0
  void set_mag_u128(unsigned __int128 v);
  /// Signed accumulation core: *this += (bneg ? -1 : +1) * mag(b).
  /// Precondition: b does not alias this value's storage.
  void add_signed(const Limb* b, std::size_t bn, bool bneg);
  void add_mag_inplace(const Limb* b, std::size_t bn);
  // Precondition: |*this| >= |b|.
  void sub_mag_inplace(const Limb* b, std::size_t bn);
  // *this = b - *this as magnitudes; precondition |b| > |*this|.
  void rsub_mag_inplace(const Limb* b, std::size_t bn);
  BigInt& addmul_impl(const BigInt& b, const BigInt& c, Scratch& s,
                      bool negate_product);
  BigInt& add_shifted_impl(const BigInt& b, std::size_t k, Scratch& s,
                           bool negate);

  static int cmp_mag(const Limb* a, std::size_t an, const Limb* b,
                     std::size_t bn);
  static void shl_mag(const Limb* a, std::size_t an, std::size_t k,
                      detail::LimbStore& out);

  // bigint_mul.cpp: out = a * b; out must not alias a or b.
  static void mul_mag(const Limb* a, std::size_t an, const Limb* b,
                      std::size_t bn, detail::LimbStore& out);
  // bigint_div.cpp: magnitude division; quotient into s.q_, remainder
  // into s.r_ (both trimmed).
  static void divmod_mag(const Limb* a, std::size_t an, const Limb* b,
                         std::size_t bn, Scratch& s);

  static Scratch& tls_scratch();
};

/// Free-function spellings of the fused kernels: addmul(a, b, c) is
/// a += b*c in place.
inline BigInt& addmul(BigInt& a, const BigInt& b, const BigInt& c) {
  return a.addmul(b, c);
}
inline BigInt& submul(BigInt& a, const BigInt& b, const BigInt& c) {
  return a.submul(b, c);
}

/// Convenience literal-ish helper: BigInt from decimal string.
inline BigInt operator""_bi(const char* s, std::size_t) {
  return BigInt::from_decimal(s);
}

}  // namespace pr
