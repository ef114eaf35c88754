#include "modular/polyzp.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pr::modular {

PolyZp PolyZp::from_poly(const Poly& p, const PrimeField& f) {
  std::vector<Zp> c;
  c.reserve(p.coeffs().size());
  for (const BigInt& x : p.coeffs()) c.push_back(f.reduce(x));
  return PolyZp(std::move(c));
}

PolyZp PolyZp::from_poly(const Poly& p, LimbReducer& red) {
  std::vector<Zp> c;
  c.reserve(p.coeffs().size());
  for (const BigInt& x : p.coeffs()) c.push_back(red.reduce(x));
  return PolyZp(std::move(c));
}

PolyZp PolyZp::add(const PolyZp& o, const PrimeField& f) const {
  std::vector<Zp> c(std::max(c_.size(), o.c_.size()));
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = f.add(coeff(i), o.coeff(i));
  }
  return PolyZp(std::move(c));
}

PolyZp PolyZp::sub(const PolyZp& o, const PrimeField& f) const {
  std::vector<Zp> c(std::max(c_.size(), o.c_.size()));
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = f.sub(coeff(i), o.coeff(i));
  }
  return PolyZp(std::move(c));
}

PolyZp PolyZp::mul(const PolyZp& o, const PrimeField& f) const {
  if (is_zero() || o.is_zero()) return PolyZp();
  std::vector<Zp> c(c_.size() + o.c_.size() - 1, Zp{0});
  for (std::size_t i = 0; i < c_.size(); ++i) {
    for (std::size_t j = 0; j < o.c_.size(); ++j) {
      c[i + j] = f.add(c[i + j], f.mul(c_[i], o.c_[j]));
    }
  }
  return PolyZp(std::move(c));
}

PolyZp PolyZp::scaled(Zp s, const PrimeField& f) const {
  std::vector<Zp> c(c_.size());
  for (std::size_t i = 0; i < c_.size(); ++i) c[i] = f.mul(c_[i], s);
  return PolyZp(std::move(c));
}

PolyZp PolyZp::derivative(const PrimeField& f) const {
  if (c_.size() <= 1) return PolyZp();
  std::vector<Zp> c(c_.size() - 1);
  for (std::size_t i = 1; i < c_.size(); ++i) {
    c[i - 1] = f.mul(c_[i], f.from_u64(static_cast<std::uint64_t>(i)));
  }
  return PolyZp(std::move(c));
}

Zp PolyZp::eval(Zp x, const PrimeField& f) const {
  Zp acc{0};
  for (std::size_t i = c_.size(); i-- > 0;) {
    acc = f.add(f.mul(acc, x), c_[i]);
  }
  return acc;
}

void PolyZp::divmod(const PolyZp& a, const PolyZp& b, const PrimeField& f,
                    PolyZp& q, PolyZp& r) {
  check_arg(!b.is_zero(), "PolyZp::divmod: division by zero polynomial");
  if (a.degree() < b.degree()) {
    q = PolyZp();
    r = a;
    return;
  }
  std::vector<Zp> rem = a.c_;
  const std::size_t db = b.c_.size() - 1;
  std::vector<Zp> quot(rem.size() - db, Zp{0});
  const Zp lb_inv = f.inv(b.leading());
  for (std::size_t qi = quot.size(); qi-- > 0;) {
    const Zp coef = f.mul(rem[qi + db], lb_inv);
    quot[qi] = coef;
    if (coef.v == 0) continue;
    for (std::size_t j = 0; j <= db; ++j) {
      rem[qi + j] = f.sub(rem[qi + j], f.mul(coef, b.c_[j]));
    }
  }
  rem.resize(db);
  q = PolyZp(std::move(quot));
  r = PolyZp(std::move(rem));
}

}  // namespace pr::modular
