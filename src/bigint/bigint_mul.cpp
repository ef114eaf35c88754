// BigInt multiplication: schoolbook, the quadratic cost model of the
// paper's `mp` package, with a one-limb fast path.  Products are computed
// into caller-provided LimbStore buffers, so steady-state multiplication
// performs no heap allocation.

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

}  // namespace

void BigInt::mul_mag(const Limb* a, std::size_t an, const Limb* b,
                     std::size_t bn, detail::LimbStore& out) {
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
  out.assign(an + bn, 0);
  mul_acc_schoolbook(a, an, b, bn, out.data());
  out.trim();
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  instr::on_mul(a.bit_length(), b.bit_length());
  BigInt r;
  BigInt::mul_mag(a.mag_.data(), a.mag_.size(), b.mag_.data(), b.mag_.size(),
                  r.mag_);
  r.neg_ = !r.mag_.empty() && (a.neg_ != b.neg_);
  return r;
}

BigInt& BigInt::mul_assign(const BigInt& o, Scratch& s) {
  instr::on_mul(bit_length(), o.bit_length());
  // The product is computed into scratch and swapped in, so `this == &o`
  // (squaring) needs no special case and the old buffer is recycled.
  mul_mag(mag_.data(), mag_.size(), o.mag_.data(), o.mag_.size(), s.prod_);
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
  mul_mag(b.mag_.data(), b.mag_.size(), c.mag_.data(), c.mag_.size(), s.prod_);
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
