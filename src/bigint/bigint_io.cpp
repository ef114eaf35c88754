// BigInt string conversion.  Operates directly on the limb store so that
// I/O does not pollute the arithmetic instrumentation counters (limb-buffer
// allocations are still counted -- they are real).
#include <array>
#include <ostream>
#include <vector>

#include "bigint/bigint.hpp"
#include "support/error.hpp"

namespace pr {

namespace {

using Limb = BigInt::Limb;

constexpr Limb kChunkBase = 10000000000000000000ULL;  // 10^19
constexpr int kChunkDigits = 19;

/// v /= d in place; returns the remainder.  No instrumentation.
Limb div_limb_inplace(detail::LimbStore& v, Limb d) {
  unsigned __int128 r = 0;
  Limb* p = v.data();
  for (std::size_t i = v.size(); i-- > 0;) {
    r = (r << 64) | p[i];
    p[i] = static_cast<Limb>(r / d);
    r %= d;
  }
  v.trim();
  return static_cast<Limb>(r);
}

/// v = v * m + a in place.  No instrumentation.
void mul_add_inplace(detail::LimbStore& v, Limb m, Limb a) {
  unsigned __int128 carry = a;
  Limb* p = v.data();
  for (std::size_t i = 0; i < v.size(); ++i) {
    carry += static_cast<unsigned __int128>(p[i]) * m;
    p[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  if (carry != 0) v.push_back(static_cast<Limb>(carry));
}

}  // namespace

BigInt BigInt::from_decimal(std::string_view s) {
  check_arg(!s.empty(), "BigInt::from_decimal: empty string");
  bool neg = false;
  std::size_t pos = 0;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    pos = 1;
  }
  check_arg(pos < s.size(), "BigInt::from_decimal: sign without digits");

  BigInt out;
  Limb chunk = 0;
  int chunk_len = 0;
  auto flush = [&] {
    Limb scale = 1;
    for (int i = 0; i < chunk_len; ++i) scale *= 10;
    mul_add_inplace(out.mag_, scale, chunk);
    chunk = 0;
    chunk_len = 0;
  };
  for (; pos < s.size(); ++pos) {
    const char ch = s[pos];
    check_arg(ch >= '0' && ch <= '9',
              "BigInt::from_decimal: invalid character");
    chunk = chunk * 10 + static_cast<Limb>(ch - '0');
    if (++chunk_len == kChunkDigits) flush();
  }
  if (chunk_len > 0) flush();
  out.mag_.trim();
  out.neg_ = neg && !out.mag_.empty();
  return out;
}

std::string BigInt::to_decimal() const {
  if (is_zero()) return "0";
  detail::LimbStore work = mag_;
  std::vector<Limb> chunks;  // base-10^19 digits, least significant first
  while (!work.empty()) chunks.push_back(div_limb_inplace(work, kChunkBase));
  // Most significant chunk first and unpadded; the rest zero-padded.
  std::string out = neg_ ? "-" : "";
  out += std::to_string(chunks.back());
  for (std::size_t i = chunks.size() - 1; i-- > 0;) {
    const std::string part = std::to_string(chunks[i]);
    out.append(kChunkDigits - part.size(), '0');
    out += part;
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0x0";
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < mag_.size(); ++i) {
    Limb v = mag_[i];
    const int digits = (i + 1 == mag_.size()) ? 0 : 16;
    std::string part;
    while (v != 0) {
      part.insert(part.begin(), kHex[v & 0xf]);
      v >>= 4;
    }
    if (digits != 0) {
      part.insert(0, std::string(16 - part.size(), '0'));
    }
    out.insert(0, part);
  }
  return (neg_ ? "-0x" : "0x") + out;
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_decimal();
}

}  // namespace pr
