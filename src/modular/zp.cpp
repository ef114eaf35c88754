#include "modular/zp.hpp"

#include <mutex>
#include <vector>

#include "modular/simd/simd.hpp"
#include "support/error.hpp"

namespace pr::modular {

namespace {

std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t powmod_u64(std::uint64_t a, std::uint64_t e, std::uint64_t m) {
  std::uint64_t r = 1 % m;
  a %= m;
  while (e != 0) {
    if (e & 1) r = mulmod_u64(r, a, m);
    a = mulmod_u64(a, a, m);
    e >>= 1;
  }
  return r;
}

}  // namespace

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull,
                          19ull, 23ull, 29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  // Sinclair's 7-base set: deterministic for all n < 2^64.
  for (std::uint64_t a : {2ull, 325ull, 9375ull, 28178ull, 450775ull,
                          9780504ull, 1795265022ull}) {
    std::uint64_t x = powmod_u64(a % n, d, n);
    if (x == 0 || x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int r = 1; r < s; ++r) {
      x = mulmod_u64(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t nth_modulus(std::size_t i) {
  // Candidates walk k * 2^20 + 1 downward from the largest value below
  // 2^62.  The scan is purely value-determined -- no randomness, no
  // dependence on call order beyond the shared cursor under the lock.
  constexpr std::uint64_t kStep = 1ull << 20;
  static std::mutex mu;
  static std::vector<std::uint64_t> table;
  static std::uint64_t next_candidate = (1ull << 62) - kStep + 1;
  std::lock_guard<std::mutex> lock(mu);
  while (table.size() <= i) {
    while (!is_prime_u64(next_candidate)) next_candidate -= kStep;
    table.push_back(next_candidate);
    next_candidate -= kStep;
  }
  return table[i];
}

PrimeField::PrimeField(std::uint64_t p) : p_(p) {
  check_arg((p & 1) != 0 && p < (1ull << 63) && is_prime_u64(p),
            "PrimeField: modulus must be an odd prime below 2^63");
  init();
}

PrimeField::PrimeField(std::uint64_t p, TrustedTag) : p_(p) {
  check_arg((p & 1) != 0 && p < (1ull << 63),
            "PrimeField::trusted: modulus must be odd and below 2^63");
  init();
}

void PrimeField::init() {
  // Newton iteration for p^{-1} mod 2^64 (p odd => p*p == 1 mod 8 seeds
  // three correct bits; each step doubles them).
  std::uint64_t inv = p_;
  for (int it = 0; it < 5; ++it) inv *= 2 - p_ * inv;
  ninv_ = ~inv + 1;  // -p^{-1}
  const std::uint64_t r = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) % p_);
  one_ = r;
  r2_ = mulmod_u64(r, r, p_);  // (2^64)^2 mod p
  floor_log2_ = 63;
  while ((p_ >> floor_log2_) == 0) --floor_log2_;
}

Zp PrimeField::reduce(const BigInt& x) const {
  // Horner over the limbs, most significant first:
  //   v <- v * 2^64 + limb.
  // In the Montgomery domain the 2^64 shift is one mont_mul by r2_
  // (mont(2^64) == 2^128 mod p == r2_), and injecting the limb is one
  // more; no hardware division anywhere.
  Zp acc = zero();
  const Zp shift{r2_};
  for (std::size_t i = x.limb_count(); i-- > 0;) {
    acc = mul(acc, shift);
    acc = add(acc, Zp{mont_mul(x.limb(i) % p_, r2_)});
  }
  return x.negative() ? neg(acc) : acc;
}

Zp LimbReducer::reduce(const BigInt& x) {
  const std::size_t nl = x.limb_count();
  if (nl <= 1) {
    const Zp m = nl == 0 ? f_.zero() : f_.from_u64(x.limb(0));
    return x.negative() ? f_.neg(m) : m;
  }
  if (pow_.empty()) pow_.push_back(f_.one());
  while (pow_.size() < nl) pow_.push_back(f_.shift64(pow_.back()));
  // sum limb_j * mont(2^{64j}) == 2^64 * |x| (mod p), so the plain fold
  // (which keeps the surplus radix factor) lands directly in Montgomery
  // form.  The dot streams the raw limb array through the SIMD kernel
  // table; the combined 192-bit value is exact, so the fold is
  // bit-identical to the sequential accumulation.
  Acc192 acc;
  simd::active().acc192_dot(x.limbs(), pow_.data(), nl, acc);
  const Zp m{f_.fold192(acc.lo, acc.hi, acc.carry)};
  return x.negative() ? f_.neg(m) : m;
}

Zp PrimeField::pow(Zp base, std::uint64_t e) const {
  Zp r = one();
  Zp b = base;
  while (e != 0) {
    if (e & 1) r = mul(r, b);
    b = mul(b, b);
    e >>= 1;
  }
  return r;
}

Zp PrimeField::inv(Zp a) const {
  check_arg(a.v != 0, "PrimeField::inv: zero has no inverse");
  // Binary extended Euclid on the raw word -- a unit is a unit regardless
  // of Montgomery scale, and ~2 cheap ops per bit beat the ~93 dependent
  // Montgomery multiplies of a Fermat power (the remainder-sequence image
  // inverts once per level per prime, so this is a hot path).  Invariants:
  // x0 * a.v == u and x1 * a.v == v (mod p); u, v both odd before each
  // subtraction, so u - v is even and every round halves.
  std::uint64_t u = a.v, v = p_;
  std::uint64_t x0 = 1, x1 = 0;
  while (u != 0) {
    while ((u & 1) == 0) {
      u >>= 1;
      x0 = (x0 & 1) == 0 ? x0 >> 1 : (x0 + p_) >> 1;  // p odd: sum is even
    }
    if (u < v) {
      std::swap(u, v);
      std::swap(x0, x1);
    }
    u -= v;
    x0 = x0 >= x1 ? x0 - x1 : x0 + p_ - x1;
  }
  check_internal(v == 1, "PrimeField::inv: operand shares a factor with p");
  // x1 == (a.v)^{-1} canonical; two radix shifts give mont(a^{-1}) ==
  // (a.v)^{-1} * 2^128 mod p.
  return Zp{mont_mul(mont_mul(x1, r2_), r2_)};
}

}  // namespace pr::modular
