// Core BigInt operations: construction, addition/subtraction, comparison,
// shifts, fused shift-accumulate, gcd, pow.  Multiplication (and the fused
// addmul/submul kernels) live in bigint_mul.cpp, division in bigint_div.cpp,
// string I/O in bigint_io.cpp.
#include "bigint/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "bigint/bigint_detail.hpp"
#include "instr/counters.hpp"
#include "support/error.hpp"

namespace pr {

BigInt::Scratch& BigInt::tls_scratch() {
  thread_local Scratch s;
  return s;
}

BigInt::BigInt(long long v) {
  if (v == 0) return;
  neg_ = v < 0;
  // Avoid overflow on LLONG_MIN by negating in unsigned space.
  unsigned long long mag =
      neg_ ? ~static_cast<unsigned long long>(v) + 1ULL
           : static_cast<unsigned long long>(v);
  mag_.push_back(static_cast<Limb>(mag));
}

BigInt::BigInt(unsigned long long v) {
  if (v != 0) mag_.push_back(static_cast<Limb>(v));
}

BigInt BigInt::from_limbs(const Limb* limbs, std::size_t n, bool negative) {
  BigInt r;
  r.mag_.assign_span(limbs, n);
  r.neg_ = negative;
  r.trim();
  return r;
}

BigInt BigInt::pow2(std::size_t k) {
  BigInt r;
  r.mag_.assign(k / 64 + 1, 0);
  r.mag_[k / 64] = Limb{1} << (k % 64);
  return r;
}

void BigInt::trim() {
  mag_.trim();
  if (mag_.empty()) neg_ = false;
}

std::size_t BigInt::bit_length() const { return detail::store_bit_length(mag_); }

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= mag_.size()) return false;
  return (mag_[limb] >> (i % 64)) & 1;
}

bool BigInt::fits_int64() const {
  if (mag_.size() > 1) return false;
  if (mag_.empty()) return true;
  if (!neg_) return mag_[0] <= 0x7fffffffffffffffULL;
  return mag_[0] <= 0x8000000000000000ULL;
}

std::int64_t BigInt::to_int64() const {
  check_arg(fits_int64(), "BigInt::to_int64: value out of range");
  if (mag_.empty()) return 0;
  if (!neg_) return static_cast<std::int64_t>(mag_[0]);
  return static_cast<std::int64_t>(~mag_[0] + 1ULL);
}

std::uint64_t BigInt::mod_u64(std::uint64_t m) const {
  if (m == 0) throw DivisionByZero();
  if (m == 1) return 0;
  // Horner over the limbs: r <- (r * 2^64 + limb) mod m, one 128/64
  // division per limb.
  std::uint64_t r = 0;
  for (std::size_t i = mag_.size(); i-- > 0;) {
    r = static_cast<std::uint64_t>(
        ((static_cast<unsigned __int128>(r) << 64) | mag_[i]) % m);
  }
  if (neg_ && r != 0) r = m - r;
  return r;
}

double BigInt::to_double() const {
  double r = 0;
  for (std::size_t i = mag_.size(); i-- > 0;) {
    r = r * 18446744073709551616.0 + static_cast<double>(mag_[i]);
  }
  return neg_ ? -r : r;
}

BigInt BigInt::operator-() const& {
  BigInt r = *this;
  r.negate();
  return r;
}

BigInt BigInt::operator-() && {
  negate();
  return std::move(*this);
}

BigInt BigInt::abs() const& {
  BigInt r = *this;
  r.neg_ = false;
  return r;
}

BigInt BigInt::abs() && {
  neg_ = false;
  return std::move(*this);
}

BigInt& BigInt::negate() {
  if (!is_zero()) neg_ = !neg_;
  return *this;
}

int BigInt::cmp_mag(const Limb* a, std::size_t an, const Limb* b,
                    std::size_t bn) {
  if (an != bn) return an < bn ? -1 : 1;
  for (std::size_t i = an; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::cmp_abs(const BigInt& a, const BigInt& b) {
  return cmp_mag(a.mag_.data(), a.mag_.size(), b.mag_.data(), b.mag_.size());
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.neg_ != b.neg_)
    return a.neg_ ? std::strong_ordering::less : std::strong_ordering::greater;
  const int c = BigInt::cmp_abs(a, b);
  const int s = a.neg_ ? -c : c;
  if (s < 0) return std::strong_ordering::less;
  if (s > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

// --- in-place magnitude primitives -----------------------------------------
// All take a raw (pointer, length) span that must not alias this->mag_'s
// storage: growing the store may move it.

void BigInt::add_mag_inplace(const Limb* b, std::size_t bn) {
  const std::size_t an = mag_.size();
  if (bn > an) mag_.resize(bn);  // zero-fills the new high limbs
  Limb* a = mag_.data();
  const std::size_t n = mag_.size();
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < bn; ++i) {
    carry += a[i];
    carry += b[i];
    a[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  for (std::size_t i = bn; carry != 0 && i < n; ++i) {
    carry += a[i];
    a[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  if (carry != 0) mag_.push_back(static_cast<Limb>(carry));
}

void BigInt::sub_mag_inplace(const Limb* b, std::size_t bn) {
  Limb* a = mag_.data();
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < bn || borrow != 0; ++i) {
    const Limb bi = i < bn ? b[i] : 0;
    const Limb ai = a[i];
    const Limb d1 = ai - bi;
    const std::uint64_t b1 = ai < bi;
    const Limb d2 = d1 - borrow;
    const std::uint64_t b2 = d1 < borrow;
    a[i] = d2;
    borrow = b1 | b2;
  }
}

void BigInt::rsub_mag_inplace(const Limb* b, std::size_t bn) {
  const std::size_t an = mag_.size();
  mag_.resize_for_overwrite(bn);  // |b| > |*this| implies bn >= an
  Limb* a = mag_.data();
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < bn; ++i) {
    const Limb ai = i < an ? a[i] : 0;
    const Limb bi = b[i];
    const Limb d1 = bi - ai;
    const std::uint64_t b1 = bi < ai;
    const Limb d2 = d1 - borrow;
    const std::uint64_t b2 = d1 < borrow;
    a[i] = d2;
    borrow = b1 | b2;
  }
  check_internal(borrow == 0, "BigInt::rsub_mag_inplace: |b| < |*this|");
}

void BigInt::add_signed(const Limb* b, std::size_t bn, bool bneg) {
  if (bn == 0) return;
  if (mag_.empty()) {
    mag_.assign_span(b, bn);
    neg_ = bneg;
    trim();
    return;
  }
  if (neg_ == bneg) {
    add_mag_inplace(b, bn);
  } else {
    const int c = cmp_mag(mag_.data(), mag_.size(), b, bn);
    if (c == 0) {
      mag_.clear();
      neg_ = false;
      return;
    }
    if (c > 0) {
      sub_mag_inplace(b, bn);
    } else {
      rsub_mag_inplace(b, bn);
      neg_ = bneg;
    }
  }
  trim();
}

BigInt& BigInt::operator+=(const BigInt& o) {
  instr::on_add(bit_length(), o.bit_length());
  if (this == &o) {
    // a += a is a doubling: shift in place (no aliasing hazard).
    if (!is_zero()) {
      const std::size_t bits = bit_length();
      mag_.resize(bits / 64 + 1);
      Limb* p = mag_.data();
      Limb carry = 0;
      for (std::size_t i = 0; i < mag_.size(); ++i) {
        const Limb next = p[i] >> 63;
        p[i] = (p[i] << 1) | carry;
        carry = next;
      }
      trim();
    }
    return *this;
  }
  add_signed(o.mag_.data(), o.mag_.size(), o.neg_);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& o) {
  instr::on_add(bit_length(), o.bit_length());
  if (this == &o) {
    mag_.clear();
    neg_ = false;
    return *this;
  }
  add_signed(o.mag_.data(), o.mag_.size(), !o.neg_);
  return *this;
}

BigInt& BigInt::operator<<=(std::size_t k) {
  if (is_zero() || k == 0) return *this;
  const std::size_t limb_shift = k / 64;
  const std::size_t bit_shift = k % 64;
  const std::size_t an = mag_.size();
  mag_.resize(an + limb_shift + 1);  // zero-fills the new high limbs
  Limb* p = mag_.data();
  if (bit_shift == 0) {
    for (std::size_t i = an; i-- > 0;) p[i + limb_shift] = p[i];
  } else {
    // High-to-low so every source limb is read before it is overwritten.
    for (std::size_t i = an; i-- > 0;) {
      p[i + limb_shift + 1] |= p[i] >> (64 - bit_shift);
      p[i + limb_shift] = p[i] << bit_shift;
    }
  }
  for (std::size_t i = 0; i < limb_shift; ++i) p[i] = 0;
  trim();
  return *this;
}

BigInt& BigInt::operator>>=(std::size_t k) {
  if (is_zero() || k == 0) return *this;
  const std::size_t limb_shift = k / 64;
  const std::size_t bit_shift = k % 64;
  const std::size_t an = mag_.size();
  if (limb_shift >= an) {
    mag_.clear();
    neg_ = false;
    return *this;
  }
  const std::size_t rn = an - limb_shift;
  Limb* p = mag_.data();
  // Low-to-high: the write index never exceeds the read index.
  for (std::size_t i = 0; i < rn; ++i) {
    Limb v = p[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < an) {
      v |= p[i + limb_shift + 1] << (64 - bit_shift);
    }
    p[i] = v;
  }
  mag_.resize_for_overwrite(rn);
  trim();
  return *this;
}

void BigInt::shl_mag(const Limb* a, std::size_t an, std::size_t k,
                     detail::LimbStore& out) {
  const std::size_t limb_shift = k / 64;
  const std::size_t bit_shift = k % 64;
  out.assign(an + limb_shift + 1, 0);
  Limb* p = out.data();
  for (std::size_t i = 0; i < an; ++i) {
    p[i + limb_shift] |= a[i] << bit_shift;
    if (bit_shift != 0) p[i + limb_shift + 1] |= a[i] >> (64 - bit_shift);
  }
  out.trim();
}

BigInt& BigInt::add_shifted_impl(const BigInt& b, std::size_t k, Scratch& s,
                                 bool negate) {
  // Matches the composed `*this += (b << k)`: one addition whose second
  // operand has bit length bits(b) + k (shifts themselves are uncounted).
  instr::on_add(bit_length(), b.is_zero() ? 0 : b.bit_length() + k);
  if (b.is_zero()) return *this;
  // Staging the shift in scratch also makes `a.add_shifted(a, k)` safe.
  shl_mag(b.mag_.data(), b.mag_.size(), k, s.shift_);
  add_signed(s.shift_.data(), s.shift_.size(), negate ? !b.neg_ : b.neg_);
  return *this;
}

BigInt& BigInt::add_shifted(const BigInt& b, std::size_t k) {
  return add_shifted_impl(b, k, tls_scratch(), false);
}
BigInt& BigInt::add_shifted(const BigInt& b, std::size_t k, Scratch& s) {
  return add_shifted_impl(b, k, s, false);
}
BigInt& BigInt::sub_shifted(const BigInt& b, std::size_t k) {
  return add_shifted_impl(b, k, tls_scratch(), true);
}
BigInt& BigInt::sub_shifted(const BigInt& b, std::size_t k, Scratch& s) {
  return add_shifted_impl(b, k, s, true);
}

BigInt gcd(BigInt a, BigInt b) {
  a.neg_ = false;
  b.neg_ = false;
  BigInt q, r;
  while (!b.is_zero()) {
    BigInt::divmod(a, b, q, r);
    a.mag_.swap(b.mag_);   // a <- b
    b.mag_.swap(r.mag_);   // b <- r (buffers rotate, no allocation)
  }
  a.neg_ = false;
  return a;
}

BigInt pow(const BigInt& base, unsigned exp) {
  BigInt result(1);
  BigInt b = base;
  while (exp != 0) {
    if (exp & 1u) result *= b;
    exp >>= 1;
    if (exp != 0) b *= b;
  }
  return result;
}

}  // namespace pr
