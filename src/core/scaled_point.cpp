#include "core/scaled_point.hpp"

#include <cmath>

#include "support/error.hpp"

namespace pr {

BigInt ceil_shift(const BigInt& a, std::size_t k) {
  if (k == 0) return a;
  BigInt q = a;
  q >>= k;  // magnitude shift truncates toward zero
  if (!a.negative()) {
    // q = floor for non-negative a; bump if any dropped bit was set.
    BigInt back = q;
    back <<= k;
    if (back < a) q += BigInt(1);
  }
  return q;
}

BigInt floor_shift(const BigInt& a, std::size_t k) {
  if (k == 0) return a;
  BigInt q = a;
  q >>= k;
  if (a.negative()) {
    BigInt back = q;
    back <<= k;
    if (back > a) q -= BigInt(1);
  }
  return q;
}

BigInt upscale(const BigInt& a, std::size_t from, std::size_t to) {
  check_arg(to >= from, "upscale: target scale below source scale");
  return a << (to - from);
}

BigInt mu_approx_of_scaled(const BigInt& a, std::size_t w, std::size_t mu) {
  check_arg(mu <= w, "mu_approx_of_scaled: mu must be <= w");
  return ceil_shift(a, w - mu);
}

std::string scaled_to_string(const BigInt& a, std::size_t w, int digits) {
  // a / 2^w = a * 10^digits / 2^w scaled down by 10^digits.
  BigInt scaled = a * pow(BigInt(10), static_cast<unsigned>(digits));
  // Round to nearest: add half of 2^w before flooring.
  if (w > 0) {
    scaled += a.negative() ? -BigInt::pow2(w - 1) : BigInt::pow2(w - 1);
  }
  BigInt q = floor_shift(scaled.negative() ? -scaled : scaled, w);
  std::string s = q.to_decimal();
  const auto d = static_cast<std::size_t>(digits);
  if (s.size() <= d) s = std::string(d + 1 - s.size(), '0') + s;
  std::string out = scaled.negative() ? "-" : "";
  out.append(s, 0, s.size() - d);
  out += '.';
  out.append(s, s.size() - d, d);
  return out;
}

double scaled_to_double(const BigInt& a, std::size_t w) {
  return a.to_double() * std::pow(2.0, -static_cast<double>(w));
}

}  // namespace pr
