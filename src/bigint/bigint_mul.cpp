// BigInt multiplication: schoolbook (default, matching the paper's `mp`
// cost model) and Karatsuba, switched by one process-wide flag.  Products
// are computed into caller-provided LimbStore/arena buffers, so
// steady-state multiplication performs no heap allocation.
#include <algorithm>
#include <atomic>
#include <cstring>

#include "bigint/bigint.hpp"
#include "bigint/bigint_detail.hpp"
#include "instr/counters.hpp"

namespace pr {

namespace {

using Limb = BigInt::Limb;

/// r += a * b (schoolbook); r must have at least an + bn limbs available
/// (plus carry headroom provided by zero high limbs).
void mul_acc_schoolbook(const Limb* a, std::size_t an, const Limb* b,
                        std::size_t bn, Limb* r) {
  for (std::size_t i = 0; i < an; ++i) {
    unsigned __int128 carry = 0;
    const unsigned __int128 ai = a[i];
    for (std::size_t j = 0; j < bn; ++j) {
      carry += r[i + j];
      carry += ai * b[j];
      r[i + j] = static_cast<Limb>(carry);
      carry >>= 64;
    }
    std::size_t k = i + bn;
    while (carry != 0) {
      carry += r[k];
      r[k] = static_cast<Limb>(carry);
      carry >>= 64;
      ++k;
    }
  }
}

// --- Karatsuba (arena-based, no per-level allocation) ----------------------

/// out = x + y (magnitudes); out has room for max(xn, yn) + 1 limbs.
/// Returns the trimmed result length.
std::size_t add_spans(const Limb* x, std::size_t xn, const Limb* y,
                      std::size_t yn, Limb* out) {
  if (xn < yn) {
    std::swap(x, y);
    std::swap(xn, yn);
  }
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < yn; ++i) {
    carry += x[i];
    carry += y[i];
    out[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  for (std::size_t i = yn; i < xn; ++i) {
    carry += x[i];
    out[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  std::size_t n = xn;
  if (carry != 0) out[n++] = static_cast<Limb>(carry);
  while (n != 0 && out[n - 1] == 0) --n;
  return n;
}

/// a -= b (magnitudes, a >= b); borrow may propagate past bn within a.
void sub_span(Limb* a, const Limb* b, std::size_t bn) {
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

/// r[off..] += x[0..xn); carry propagates within r (result fits by math).
void add_at(Limb* r, const Limb* x, std::size_t xn, std::size_t off) {
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < xn; ++i) {
    carry += r[off + i];
    carry += x[i];
    r[off + i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  for (std::size_t k = off + xn; carry != 0; ++k) {
    carry += r[k];
    r[k] = static_cast<Limb>(carry);
    carry >>= 64;
  }
}

std::size_t trimmed_len(const Limb* p, std::size_t n) {
  while (n != 0 && p[n - 1] == 0) --n;
  return n;
}

constexpr std::size_t kThreshold = BigInt::kKaratsubaThreshold;
static_assert(kThreshold >= 4, "Karatsuba needs operands of > 3 limbs");

// Constant-initialized, so safe to read from static initializers too.
std::atomic<bool> karatsuba_on{false};

/// Arena limbs needed by kara_rec for operands of at most n limbs:
/// each level consumes 4*(h+1) limbs (asum, bsum, z1) and recurses on
/// operands of at most h+1 limbs.
std::size_t kara_arena_bound(std::size_t n) {
  std::size_t total = 0;
  while (n >= kThreshold) {
    const std::size_t h = (n + 1) / 2;
    total += 4 * (h + 1);
    n = h + 1;
  }
  return total;
}

/// r[0..an+bn) = a * b; r must be zero-filled.  tmp is arena space of at
/// least kara_arena_bound(max(an, bn)) limbs.
void kara_rec(const Limb* a, std::size_t an, const Limb* b, std::size_t bn,
              Limb* r, Limb* tmp) {
  if (an == 0 || bn == 0) return;
  if (std::min(an, bn) < kThreshold) {
    mul_acc_schoolbook(a, an, b, bn, r);
    return;
  }
  const std::size_t h = (std::max(an, bn) + 1) / 2;
  const std::size_t alo = std::min(h, an);
  const std::size_t blo = std::min(h, bn);
  const std::size_t ahi = an - alo;
  const std::size_t bhi = bn - blo;

  Limb* asum = tmp;                // h + 1 limbs
  Limb* bsum = tmp + (h + 1);      // h + 1 limbs
  Limb* z1 = tmp + 2 * (h + 1);    // 2 * (h + 1) limbs
  Limb* next = tmp + 4 * (h + 1);

  // z0 into r[0..alo+blo), z2 into r[2h..an+bn); the gap stays zero.
  kara_rec(a, alo, b, blo, r, next);
  if (ahi != 0 && bhi != 0) {
    kara_rec(a + alo, ahi, b + blo, bhi, r + 2 * h, next);
  }

  const std::size_t asn = add_spans(a, alo, a + alo, ahi, asum);
  const std::size_t bsn = add_spans(b, blo, b + blo, bhi, bsum);
  std::memset(z1, 0, (asn + bsn) * sizeof(Limb));
  kara_rec(asum, asn, bsum, bsn, z1, next);

  // z1 -= z0, z1 -= z2 (subtrahend spans trimmed so they never exceed z1).
  sub_span(z1, r, trimmed_len(r, alo + blo));
  if (ahi != 0 && bhi != 0) {
    sub_span(z1, r + 2 * h, trimmed_len(r + 2 * h, ahi + bhi));
  }
  // r += z1 << (64*h); trim so the carry loop stays inside r.
  add_at(r, z1, trimmed_len(z1, asn + bsn), h);
}

}  // namespace

void BigInt::set_karatsuba_enabled(bool on) {
  karatsuba_on.store(on, std::memory_order_release);
}

bool BigInt::karatsuba_enabled() {
  return karatsuba_on.load(std::memory_order_acquire);
}

void BigInt::mul_mag(const Limb* a, std::size_t an, const Limb* b,
                     std::size_t bn, detail::LimbStore& out,
                     std::vector<Limb>& arena) {
  if (an == 0 || bn == 0) {
    out.clear();
    return;
  }
  if (an == 1 && bn == 1) {
    // Single-limb fast path: at most two product limbs, no zero-fill pass.
    const unsigned __int128 p =
        static_cast<unsigned __int128>(a[0]) * b[0];
    const Limb hi = static_cast<Limb>(p >> 64);
    out.resize_for_overwrite(hi != 0 ? 2 : 1);
    out[0] = static_cast<Limb>(p);
    if (hi != 0) out[1] = hi;
    return;
  }
  if (std::min(an, bn) >= kThreshold &&
      karatsuba_on.load(std::memory_order_acquire)) {
    const std::size_t need = kara_arena_bound(std::max(an, bn));
    if (arena.size() < need) arena.resize(need);
    out.assign(an + bn, 0);
    kara_rec(a, an, b, bn, out.data(), arena.data());
  } else {
    out.assign(an + bn, 0);
    mul_acc_schoolbook(a, an, b, bn, out.data());
  }
  out.trim();
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  instr::on_mul(a.bit_length(), b.bit_length());
  BigInt r;
  BigInt::mul_mag(a.mag_.data(), a.mag_.size(), b.mag_.data(), b.mag_.size(),
                  r.mag_, BigInt::tls_scratch().arena_);
  r.neg_ = !r.mag_.empty() && (a.neg_ != b.neg_);
  return r;
}

BigInt& BigInt::mul_assign(const BigInt& o, Scratch& s) {
  instr::on_mul(bit_length(), o.bit_length());
  // The product is computed into scratch and swapped in, so `this == &o`
  // (squaring) needs no special case and the old buffer is recycled.
  mul_mag(mag_.data(), mag_.size(), o.mag_.data(), o.mag_.size(), s.prod_,
          s.arena_);
  neg_ = !s.prod_.empty() && (neg_ != o.neg_);
  mag_.swap(s.prod_);
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& o) {
  return mul_assign(o, tls_scratch());
}

BigInt& BigInt::addmul_impl(const BigInt& b, const BigInt& c, Scratch& s,
                            bool negate_product) {
  // Instrumentation-equivalent to `*this += b * c`: one multiplication
  // (operand bits of b and c) followed by one addition (our bits vs the
  // product's bits).  Keeping this exact is what lets the Figure 2-7
  // counter validation pass unchanged with fused kernels in the hot paths.
  instr::on_mul(b.bit_length(), c.bit_length());
  mul_mag(b.mag_.data(), b.mag_.size(), c.mag_.data(), c.mag_.size(), s.prod_,
          s.arena_);
  instr::on_add(bit_length(), detail::store_bit_length(s.prod_));
  bool pneg = !s.prod_.empty() && (b.neg_ != c.neg_);
  if (negate_product) pneg = !pneg;
  // add_signed's no-alias precondition holds: the product lives in scratch,
  // so b or c aliasing *this is fine.
  add_signed(s.prod_.data(), s.prod_.size(), pneg);
  return *this;
}

BigInt& BigInt::addmul(const BigInt& b, const BigInt& c) {
  return addmul_impl(b, c, tls_scratch(), false);
}
BigInt& BigInt::addmul(const BigInt& b, const BigInt& c, Scratch& s) {
  return addmul_impl(b, c, s, false);
}
BigInt& BigInt::submul(const BigInt& b, const BigInt& c) {
  return addmul_impl(b, c, tls_scratch(), true);
}
BigInt& BigInt::submul(const BigInt& b, const BigInt& c, Scratch& s) {
  return addmul_impl(b, c, s, true);
}

}  // namespace pr
