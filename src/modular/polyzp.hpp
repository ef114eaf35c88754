// Dense univariate polynomials over a word-sized prime field.
//
// Mirror of poly/poly.hpp at reduced precision: coefficients are Montgomery
// residues, stored little-endian with no leading zero (the zero polynomial
// is the empty vector).  Every operation takes the PrimeField explicitly --
// a PolyZp is only meaningful relative to the field that produced it.
//
// These are the per-prime images the multimodular fast paths compute:
// schoolbook multiplication and monic-free division mirror the exact
// kernels so an image commutes with reduction whenever no leading
// coefficient vanishes mod p.
#pragma once

#include <vector>

#include "modular/zp.hpp"
#include "poly/poly.hpp"

namespace pr::modular {

class PolyZp {
 public:
  PolyZp() = default;
  explicit PolyZp(std::vector<Zp> coeffs) : c_(std::move(coeffs)) { trim(); }

  /// Image of an exact polynomial: every coefficient reduced mod p.  The
  /// image degree may be lower than p's if lc(p) vanishes mod the prime.
  static PolyZp from_poly(const Poly& p, const PrimeField& f);
  /// Same, through a caller-owned LimbReducer (one raw multiply per limb
  /// instead of two dependent Montgomery multiplies -- the form the image
  /// transforms use, since they reduce every coefficient of every input).
  static PolyZp from_poly(const Poly& p, LimbReducer& red);

  int degree() const { return static_cast<int>(c_.size()) - 1; }
  bool is_zero() const { return c_.empty(); }
  Zp coeff(std::size_t i) const {
    return i < c_.size() ? c_[i] : Zp{0};
  }
  Zp leading() const { return c_.back(); }
  const std::vector<Zp>& coeffs() const { return c_; }

  PolyZp add(const PolyZp& o, const PrimeField& f) const;
  PolyZp sub(const PolyZp& o, const PrimeField& f) const;
  /// Schoolbook product.
  PolyZp mul(const PolyZp& o, const PrimeField& f) const;
  PolyZp scaled(Zp s, const PrimeField& f) const;
  PolyZp derivative(const PrimeField& f) const;
  Zp eval(Zp x, const PrimeField& f) const;

  /// q, r with *this == q*b + r, deg r < deg b (b != 0; field division by
  /// lc(b) makes this exact for any divisor).
  static void divmod(const PolyZp& a, const PolyZp& b, const PrimeField& f,
                     PolyZp& q, PolyZp& r);

  friend bool operator==(const PolyZp& a, const PolyZp& b) {
    return a.c_ == b.c_;
  }

 private:
  std::vector<Zp> c_;

  void trim() {
    while (!c_.empty() && c_.back().v == 0) c_.pop_back();
  }
};

}  // namespace pr::modular
