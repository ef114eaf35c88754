#include "poly/certified_sign.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace pr {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// Working width: a nonzero mantissa has exactly this many bits, so the
/// sum of two aligned mantissas fits in 128 bits and a mantissa times a
/// two-limb point fits in 256.
constexpr int kMantBits = 124;
/// Every update of the bound is a few round-to-nearest double operations,
/// each off by at most 2^-53 relative (less when the compiler fuses a
/// multiply-add); scaling the result by this factor keeps it an upper
/// bound either way.
constexpr double kRoundUp = 1.0 + 0x1p-45;
/// A positive bound never drops below this normal value, so it cannot
/// underflow to 0.
constexpr double kTinyErr = 0x1p-900;
/// 2^kMantBits: a bound this large can never certify.
constexpr double kMantLimit = static_cast<double>(u128{1} << kMantBits);
/// Larger scales fall back: exponents stay far from int64 overflow.
constexpr std::size_t kMaxScale = std::size_t{1} << 32;

int bit_length(u128 v) {
  const auto hi = static_cast<u64>(v >> 64);
  if (hi != 0) return 128 - std::countl_zero(hi);
  return 64 - std::countl_zero(static_cast<u64>(v));
}

/// Bits [e, e + 128) of the little-endian magnitude limbs[0..n).
u128 bits_at(const u64* limbs, std::size_t n, std::size_t e) {
  const std::size_t q = e / 64;
  const auto r = static_cast<unsigned>(e % 64);
  const auto limb = [&](std::size_t i) { return i < n ? limbs[i] : u64{0}; };
  u64 lo = limb(q);
  u64 hi = limb(q + 1);
  if (r != 0) {
    lo = (lo >> r) | (hi << (64 - r));
    hi = (hi >> r) | (limb(q + 2) << (64 - r));
  }
  return (static_cast<u128>(hi) << 64) | lo;
}

/// True iff one of bits [0, s) of limbs[0..n) is set.
bool low_bits_set(const u64* limbs, std::size_t n, std::size_t s) {
  const std::size_t q = std::min(s / 64, n);
  for (std::size_t i = 0; i < q; ++i) {
    if (limbs[i] != 0) return true;
  }
  const auto r = static_cast<unsigned>(s % 64);
  return q < n && r != 0 && (limbs[q] & ((u64{1} << r) - 1)) != 0;
}

/// err * 2^k for a bound err >= 0: exact in the normal range, inf on
/// overflow, and never below kTinyErr when err > 0.
double scale_err(double err, std::int64_t k) {
  if (err == 0) return 0;
  double v;
  if (k >= -1022 && k <= 1023) {
    // 2^k built from its exponent bits: one multiplication.
    v = err * std::bit_cast<double>(static_cast<u64>(k + 1023) << 52);
  } else {
    const auto clamped = std::clamp<std::int64_t>(k, -4096, 4096);
    v = std::ldexp(err, static_cast<int>(clamped));
  }
  return v < kTinyErr ? kTinyErr : v;
}

/// (err + units) rounded up; exactly 0 when both are.
double add_units(double err, double units) {
  if (err == 0 && units == 0) return 0;
  return (err + units) * kRoundUp;
}

/// |t| <= mant * 2^exp, mant an integer of at most 53 bits (2^53 after
/// rounding up): the top 53 bits of the magnitude limbs[0..n), rounded up.
struct UpperBound {
  double mant = 0;
  std::int64_t exp = 0;
};

UpperBound upper_bound(const u64* limbs, std::size_t n) {
  if (n == 0) return {};
  const std::size_t bits = 64 * n - std::countl_zero(limbs[n - 1]);
  if (bits <= 53) return {static_cast<double>(limbs[0]), 0};
  const std::size_t k = bits - 53;
  auto top = static_cast<u64>(bits_at(limbs, n, k));
  if (low_bits_set(limbs, n, k)) ++top;  // top <= 2^53: exact
  return {static_cast<double>(top), static_cast<std::int64_t>(k)};
}

/// a * b as four little-endian limbs.
void mul_wide(u128 a, u128 b, u64 out[4]) {
  const auto a0 = static_cast<u64>(a), a1 = static_cast<u64>(a >> 64);
  const auto b0 = static_cast<u64>(b), b1 = static_cast<u64>(b >> 64);
  const u128 p00 = static_cast<u128>(a0) * b0;
  const u128 p01 = static_cast<u128>(a0) * b1;
  const u128 p10 = static_cast<u128>(a1) * b0;
  const u128 p11 = static_cast<u128>(a1) * b1;
  const u128 mid =
      (p00 >> 64) + static_cast<u64>(p01) + static_cast<u64>(p10);
  const u128 high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
  out[0] = static_cast<u64>(p00);
  out[1] = static_cast<u64>(mid);
  out[2] = static_cast<u64>(high);
  out[3] = static_cast<u64>(high >> 64);
}

/// The Horner accumulator: value within err * 2^exp of +-mag * 2^exp.
struct Approx {
  u128 mag = 0;  ///< 0, or exactly kMantBits bits
  bool neg = false;
  std::int64_t exp = 0;
  double err = 0;

  /// Brings a nonzero mantissa of at most kMantBits + 1 bits to exactly
  /// kMantBits bits.
  void normalize() {
    if (mag == 0) {
      neg = false;
      return;
    }
    const int bits = bit_length(mag);
    if (bits > kMantBits) {
      const int s = bits - kMantBits;
      const bool inexact = (mag & ((u128{1} << s) - 1)) != 0;
      mag >>= s;
      exp += s;
      err = add_units(scale_err(err, -s), inexact ? 1 : 0);
    } else if (bits < kMantBits) {
      const int s = kMantBits - bits;  // exact: value and bound scale alike
      mag <<= s;
      exp -= s;
      err = scale_err(err, s);
    }
  }

  /// value <- value * t / 2^w, |t| = tmag <= t_up.
  void mul_point(u128 tmag, bool tneg, double t_up, std::size_t w) {
    exp -= static_cast<std::int64_t>(w);
    if (mag == 0) {
      err = err == 0 ? 0 : err * t_up * kRoundUp;
      return;
    }
    u64 prod[4];
    mul_wide(mag, tmag, prod);
    int bits = 0;
    for (int i = 3; i >= 0; --i) {
      if (prod[i] != 0) {
        bits = 64 * i + 64 - std::countl_zero(prod[i]);
        break;
      }
    }
    const auto s = static_cast<std::size_t>(std::max(0, bits - kMantBits));
    const bool inexact = low_bits_set(prod, 4, s);
    mag = bits_at(prod, 4, s);
    neg = neg != tneg;
    exp += static_cast<std::int64_t>(s);
    err = add_units(scale_err(err * t_up, -static_cast<std::int64_t>(s)),
                    inexact ? 1 : 0);
    if (mag == 0) neg = false;
  }

  /// value <- value + a.
  void add_coeff(const BigInt& a) {
    if (a.is_zero()) return;
    // a's top kMantBits bits sit at exponent ea; align both terms at the
    // larger exponent (a zero accumulator moves to ea exactly).
    const std::int64_t ea =
        static_cast<std::int64_t>(a.bit_length()) - kMantBits;
    const std::int64_t e = mag == 0 ? ea : std::max(exp, ea);
    int units = 0;
    u128 m1 = mag;
    if (e > exp) {
      const std::int64_t k = e - exp;
      const bool inexact =
          k >= 128 ? m1 != 0 : (m1 & ((u128{1} << k) - 1)) != 0;
      m1 = k >= 128 ? 0 : m1 >> k;
      if (inexact) ++units;
    }
    u128 m2;
    if (e >= 0) {
      m2 = bits_at(a.limbs(), a.limb_count(), static_cast<std::size_t>(e));
      if (e > 0) ++units;  // the bits below e are not read
    } else {
      m2 = bits_at(a.limbs(), a.limb_count(), 0) << (-e);  // < 2^kMantBits
    }
    const double scaled = scale_err(err, exp - e);
    if (neg == a.negative()) {
      mag = m1 + m2;
    } else if (m1 >= m2) {
      mag = m1 - m2;
    } else {
      mag = m2 - m1;
      neg = a.negative();
    }
    exp = e;
    err = add_units(scaled, units);
    normalize();
  }
};

/// A bound err * 2^exp >= 0 with its exponent kept apart from the value's,
/// so that no point size and no cancellation can overflow it.  err is
/// rescaled (exactly) only once it leaves [2^-512, 2^512].
struct ErrBound {
  double err = 0;
  std::int64_t exp = 0;

  void normalize() {
    if (err != 0 && (err > 0x1p512 || err < 0x1p-512)) {
      int k = 0;
      err = std::frexp(err, &k);
      exp += k;
    }
  }

  /// bound <- bound * mant * 2^k, mant >= 0.
  void scale(double mant, std::int64_t k) {
    if (err == 0) return;
    err = err * mant * kRoundUp;
    exp += k;
    normalize();
  }

  /// bound <- bound + 2^k.
  void add_unit(std::int64_t k) {
    const std::int64_t top = err == 0 ? k : std::max(exp, k);
    err = add_units(scale_err(err, exp - top), scale_err(1.0, k - top));
    exp = top;
    normalize();
  }
};

using Limbs = std::vector<u64>;

void trim(Limbs& a) {
  while (!a.empty() && a.back() == 0) a.pop_back();
}

std::size_t bit_length(const Limbs& a) {
  return a.empty() ? 0 : 64 * a.size() - std::countl_zero(a.back());
}

/// out <- a[0..n) << k.
void shift_left(const u64* a, std::size_t n, std::size_t k, Limbs& out) {
  const std::size_t q = k / 64;
  const auto r = static_cast<unsigned>(k % 64);
  out.assign(n + q + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out[i + q] |= a[i] << r;
    if (r != 0) out[i + q + 1] = a[i] >> (64 - r);
  }
  trim(out);
}

/// out <- a[0..n) >> k (toward zero).
void shift_right(const u64* a, std::size_t n, std::size_t k, Limbs& out) {
  const std::size_t q = k / 64;
  const auto r = static_cast<unsigned>(k % 64);
  if (q >= n) {
    out.clear();
    return;
  }
  out.resize(n - q);
  for (std::size_t i = 0; i + q < n; ++i) {
    u64 v = a[i + q] >> r;
    if (r != 0 && i + q + 1 < n) v |= a[i + q + 1] << (64 - r);
    out[i] = v;
  }
  trim(out);
}

/// out <- a * b[0..nb), schoolbook (the operands are a few limbs).
void mul(const Limbs& a, const u64* b, std::size_t nb, Limbs& out) {
  out.assign(a.size() + nb, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < nb; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + nb] = carry;
  }
  trim(out);
}

int compare(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// a <- a + b.
void add_to(Limbs& a, const Limbs& b) {
  if (a.size() < b.size()) a.resize(b.size(), 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < a.size() && (i < b.size() || carry != 0);
       ++i) {
    const u128 sum = static_cast<u128>(a[i]) + (i < b.size() ? b[i] : 0) +
                     carry;
    a[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  if (carry != 0) a.push_back(carry);
}

/// a <- |a - b|; true when b was the larger.
bool subtract_from(Limbs& a, const Limbs& b) {
  const bool flip = compare(a, b) < 0;
  if (a.size() < b.size()) a.resize(b.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const u64 bi = i < b.size() ? b[i] : 0;
    const u64 x = flip ? bi : a[i];
    const u64 y = flip ? a[i] : bi;
    a[i] = x - y - borrow;
    borrow = (x < y) | (x - y < borrow);
  }
  trim(a);
  return flip;
}

/// The P-bit Horner accumulator, in word arithmetic on reused buffers:
/// p's partial value within bound of +-mag * 2^e.  Each step runs exactly
/// in `sum` and truncates once, so mag < 2^prec between steps.
struct LimbApprox {
  Limbs mag, sum, term;
  bool neg = false;
  std::int64_t e = 0;
  ErrBound bound;
  std::size_t prec = 0;

  /// value <- value * t / 2^w + c, |t| <= tb.
  void step(const BigInt& t, const UpperBound& tb, std::size_t w,
            const BigInt& c) {
    const auto sw = static_cast<std::int64_t>(w);
    mul(mag, t.limbs(), t.limb_count(), sum);
    neg = neg != t.negative();
    e -= sw;
    bound.scale(tb.mant, tb.exp - sw);
    add(c);
  }

  /// value <- value + c, then the mantissa truncated (toward zero) to prec
  /// bits.  c joins exactly at the sum's exponent when that is at most 0;
  /// above it c's low bits are dropped, for at most one more unit.
  void add(const BigInt& c) {
    if (sum.empty()) e = 0;
    if (!c.is_zero()) {
      if (e <= 0) {
        shift_left(c.limbs(), c.limb_count(), static_cast<std::size_t>(-e),
                   term);
      } else {
        const auto s = static_cast<std::size_t>(e);
        if (low_bits_set(c.limbs(), c.limb_count(), s)) bound.add_unit(e);
        shift_right(c.limbs(), c.limb_count(), s, term);
      }
      if (sum.empty()) {
        sum.swap(term);
        neg = c.negative();
      } else if (neg == c.negative()) {
        add_to(sum, term);
      } else if (subtract_from(sum, term)) {
        neg = c.negative();
      }
    }
    const std::size_t bits = bit_length(sum);
    if (bits <= prec) {
      mag.swap(sum);
    } else {
      const std::size_t s = bits - prec;
      const bool inexact = low_bits_set(sum.data(), sum.size(), s);
      shift_right(sum.data(), sum.size(), s, mag);
      e += static_cast<std::int64_t>(s);
      if (inexact) bound.add_unit(e);
    }
    if (mag.empty()) neg = false;
  }
};

}  // namespace

ValueBounds bounded_eval_scaled(const Poly& p, const BigInt& t, std::size_t w,
                                std::size_t prec) {
  ValueBounds out;
  const std::vector<BigInt>& c = p.coeffs();
  if (c.empty() || prec == 0) return out;
  const UpperBound tb = upper_bound(t.limbs(), t.limb_count());
  // One accumulator per thread: its buffers keep their capacity.
  thread_local LimbApprox v;
  v.mag.clear();
  v.sum.clear();
  v.neg = false;
  v.e = 0;
  v.bound = ErrBound{};
  v.prec = prec;
  v.add(c.back());
  for (std::size_t i = c.size() - 1; i-- > 0;) v.step(t, tb, w, c[i]);
  // The bound in units of 2^e, rounded up to an integer r; certified iff
  // |m| > r, so a zero value (|m| <= r then) is never certified.
  const std::size_t bits = bit_length(v.mag);
  BigInt r;
  if (v.bound.err != 0) {
    int shift = 0;
    const double frac = std::frexp(v.bound.err, &shift);  // in [0.5, 1)
    const std::int64_t k = v.bound.exp + shift - v.e;  // bound >= 2^(k-1)
    if (k - 1 >= static_cast<std::int64_t>(bits)) return out;
    // frac = mant * 2^-53 exactly, mant < 2^53.
    const auto mant = static_cast<u64>(std::ldexp(frac, 53));
    if (k >= 53) {
      r = BigInt(static_cast<unsigned long long>(mant))
          << static_cast<std::size_t>(k - 53);
    } else if (53 - k >= 64) {
      r = BigInt(1);
    } else {
      const u64 den = u64{1} << (53 - k);
      r = BigInt(static_cast<unsigned long long>((mant + den - 1) >> (53 - k)));
    }
  }
  BigInt mag = BigInt::from_limbs(v.mag.data(), v.mag.size(), false);
  if (mag <= r) return out;
  out.sign = v.neg ? -1 : 1;
  out.lo = mag - r;
  out.hi = std::move(mag) + r;
  out.exp = v.e;
  out.prec = prec;
  return out;
}

std::optional<int> certified_sign_scaled(const Poly& p, const BigInt& t,
                                         std::size_t w) {
  const std::vector<BigInt>& c = p.coeffs();
  if (c.empty() || t.limb_count() > 2 || w > kMaxScale) return std::nullopt;
  const u128 tmag = bits_at(t.limbs(), t.limb_count(), 0);
  const UpperBound tb = upper_bound(t.limbs(), t.limb_count());
  const double t_up = std::ldexp(tb.mant, static_cast<int>(tb.exp));
  Approx v;
  v.add_coeff(c.back());
  for (std::size_t i = c.size() - 1; i-- > 0;) {
    v.mul_point(tmag, t.negative(), t_up, w);
    v.add_coeff(c[i]);
  }
  // Certified iff |m| > delta; NaN or a bound of 2^kMantBits or more never
  // certifies.
  if (v.mag == 0 || !(v.err < kMantLimit)) return std::nullopt;
  if (v.mag <= static_cast<u128>(v.err)) return std::nullopt;
  return v.neg ? -1 : 1;
}

ValueBounds certified_eval_scaled(const Poly& p, const BigInt& t,
                                  std::size_t w, std::size_t prec,
                                  std::uint64_t* exact_evals) {
  // Exact Horner costs about d^2/2 * max(w, bits(t)) * bits(t) bit
  // operations, the P-bit one d * P * bits(t).
  const auto d = static_cast<std::size_t>(std::max(p.degree(), 0));
  const std::size_t limit =
      p.max_coeff_bits() + d * std::max(w, t.bit_length()) / 2;
  for (prec = std::max<std::size_t>(prec, 1); prec < limit; prec *= 2) {
    ValueBounds v = bounded_eval_scaled(p, t, w, prec);
    if (v.sign != 0) return v;
  }
  if (exact_evals != nullptr) *exact_evals += 1;
  BigInt v = p.eval_scaled(t, w);
  ValueBounds out;
  out.sign = v.signum();
  out.hi = v.abs();
  out.lo = std::move(v).abs();
  out.exp = -static_cast<std::int64_t>(w * d);
  return out;
}

int filtered_sign_scaled(const Poly& p, const BigInt& t, std::size_t w) {
  if (const auto s = certified_sign_scaled(p, t, w)) return *s;
  return certified_eval_scaled(p, t, w, 2 * kMantBits, nullptr).sign;
}

std::optional<BigInt> bounded_quotient(const ValueBounds& num,
                                       const ValueBounds& den,
                                       std::size_t s) {
  // floor(2^k n / d) at the bounds' exponents, k = s + num.exp - den.exp.
  const std::int64_t k = static_cast<std::int64_t>(s) + num.exp - den.exp;
  const auto corner = [k](const BigInt& n, const BigInt& d) {
    return k >= 0 ? (n << static_cast<std::size_t>(k)) / d
                  : n / (d << static_cast<std::size_t>(-k));
  };
  BigInt q = corner(num.hi, den.lo);
  if (corner(num.lo, den.hi) != q) return std::nullopt;
  if (num.sign != den.sign) q.negate();
  return q;
}

BigInt newton_step_scaled(const Poly& p, const Poly& dp, const BigInt& t,
                          std::size_t w, ValueBounds vp, ValueBounds vdp) {
  std::optional<BigInt> q = bounded_quotient(vp, vdp, w);
  while (!q) {
    if (vp.lo != vp.hi) {
      vp = certified_eval_scaled(p, t, w, 2 * vp.prec, nullptr);
    }
    if (vdp.lo != vdp.hi) {
      vdp = certified_eval_scaled(dp, t, w, 2 * vdp.prec, nullptr);
    }
    q = bounded_quotient(vp, vdp, w);
  }
  return std::move(*q);
}

}  // namespace pr
