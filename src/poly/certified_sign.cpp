#include "poly/certified_sign.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

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
double add_units(double err, int units) {
  if (err == 0 && units == 0) return 0;
  return (err + units) * kRoundUp;
}

/// An upper bound on t as a double.
double upper_double(u128 t) {
  const int bits = bit_length(t);
  if (bits <= 53) return static_cast<double>(static_cast<u64>(t));
  const int k = bits - 53;
  auto top = static_cast<u64>(t >> k);
  if ((t & ((u128{1} << k) - 1)) != 0) ++top;  // top <= 2^53: exact
  return std::ldexp(static_cast<double>(top), k);
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

}  // namespace

std::optional<int> certified_sign_scaled(const Poly& p, const BigInt& t,
                                         std::size_t w) {
  const std::vector<BigInt>& c = p.coeffs();
  if (c.empty() || t.limb_count() > 2 || w > kMaxScale) return std::nullopt;
  const u128 tmag = bits_at(t.limbs(), t.limb_count(), 0);
  const double t_up = upper_double(tmag);
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

int filtered_sign_scaled(const Poly& p, const BigInt& t, std::size_t w) {
  if (const auto s = certified_sign_scaled(p, t, w)) return *s;
  return p.sign_at_scaled(t, w);
}

}  // namespace pr
