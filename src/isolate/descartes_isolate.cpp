#include "isolate/descartes_isolate.hpp"

#include <algorithm>
#include <utility>

#include "poly/bounds.hpp"
#include "poly/sturm.hpp"
#include "support/error.hpp"

namespace pr {

int descartes_sign_variations(const Poly& p) {
  int count = 0;
  int prev = 0;
  for (int i = 0; i <= p.degree(); ++i) {
    const int s = p.coeff(static_cast<std::size_t>(i)).signum();
    if (s == 0) continue;
    if (prev != 0 && s != prev) ++count;
    prev = s;
  }
  return count;
}

int descartes_bound_01(const Poly& q) {
  check_arg(!q.is_zero(), "descartes_bound_01: zero polynomial");
  // (1+x)^n q(1/(1+x)) == reversed(q) shifted by 1.
  return descartes_sign_variations(q.reversed().taylor_shift(BigInt(1)));
}

}  // namespace pr

namespace pr::isolate {

namespace {

/// q(x/2) * 2^deg, keeping integer coefficients.
Poly left_half(const Poly& q) {
  std::vector<BigInt> c;
  const int d = q.degree();
  c.reserve(static_cast<std::size_t>(d) + 1);
  for (int i = 0; i <= d; ++i) {
    c.push_back(q.coeff(static_cast<std::size_t>(i))
                << static_cast<std::size_t>(d - i));
  }
  return Poly(std::move(c));
}

/// Collins-Akritas recursion over a band.  The t-space unit interval maps
/// to the x-space band [a/2^w, b/2^w] via x = (a + (b - a) t) / 2^w, so a
/// t-space dyadic point c/2^k is the x-space scaled integer
/// (a << k) + (b - a) * c at scale w + k.
struct BandIsolator {
  const Poly& p;      // the polynomial cells are certified against
  const BigInt& a;    // band left endpoint, scale w
  const BigInt& d;    // band width b - a (> 0), scale w
  std::size_t w;
  std::size_t depth_limit;
  std::vector<IsolatingCell>& out;

  BigInt x_scaled(const BigInt& c, std::size_t k) const {
    return (a << k) + d * c;
  }

  void emit_exact(const BigInt& c, std::size_t k) {
    IsolatingCell cell;
    cell.exact = true;
    cell.scale = w + k;
    cell.lo = x_scaled(c, k);
    cell.hi = cell.lo;
    out.push_back(std::move(cell));
  }

  void emit_isolated(const BigInt& c, std::size_t k) {
    IsolatingCell cell;
    cell.scale = w + k;
    cell.lo = x_scaled(c, k);
    cell.hi = x_scaled(c + BigInt(1), k);
    // An endpoint may be an exact (separately emitted) root, so certify
    // with one-sided sign limits.
    cell.s_lo = sign_right_limit(p, cell.lo, cell.scale);
    cell.s_hi = sign_left_limit(p, cell.hi, cell.scale);
    check_internal(cell.s_lo * cell.s_hi == -1,
                   "isolate_in_band: isolated interval lost its root");
    out.push_back(std::move(cell));
  }

  /// q is p transformed so the t-interval (c/2^k, (c+1)/2^k) is q's (0, 1).
  void isolate(const Poly& q, const BigInt& c, std::size_t k) {
    const int bound = descartes_bound_01(q);
    if (bound == 0) return;
    if (bound == 1) {
      emit_isolated(c, k);
      return;
    }
    check_arg(k < depth_limit,
              "isolate_in_band: subdivision exceeded the squarefree depth "
              "bound (input has a repeated root?)");
    Poly ql = left_half(q);                // (0, 1/2)
    Poly qr = ql.taylor_shift(BigInt(1));  // (1/2, 1)
    const BigInt mid = (c << 1) + BigInt(1);
    if (qr.coeff(0).is_zero()) {
      emit_exact(mid, k + 1);
      qr = Poly::divexact(qr, Poly{0, 1});
      ql = Poly::divexact(ql, Poly{-1, 1});
    }
    isolate(ql, c << 1, k + 1);
    isolate(qr, mid, k + 1);
  }
};

}  // namespace

bool cell_less(const IsolatingCell& a, const IsolatingCell& b) {
  const std::size_t s = std::max(a.scale, b.scale);
  const BigInt la = a.lo << (s - a.scale);
  const BigInt lb = b.lo << (s - b.scale);
  if (la != lb) return la < lb;
  // Same left endpoint: an exact root at the point precedes the open
  // interval starting there.
  return a.exact && !b.exact;
}

std::vector<IsolatingCell> isolate_in_band(const Poly& p, const BigInt& a,
                                           const BigInt& b, std::size_t w) {
  check_arg(p.degree() >= 1, "isolate_in_band: degree >= 1 required");
  check_arg(a < b, "isolate_in_band: empty band");
  const auto n = static_cast<std::size_t>(p.degree());
  // Mahler-style root-separation slack: squarefree subdivision must stop
  // well before this; only a repeated root can reach it.
  const std::size_t depth_limit =
      2 * n * (p.max_coeff_bits() + 2 * n + w) + 64;

  std::vector<IsolatingCell> cells;
  const BigInt d = b - a;
  BandIsolator iso{p, a, d, w, depth_limit, cells};

  // q0(t) = 2^(w n) p((a + d t) / 2^w): scale, shift to the band's left
  // endpoint, then stretch [0, 1] over the band width.
  std::vector<BigInt> c;
  c.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    c.push_back(p.coeff(i) << (w * (n - i)));
  }
  Poly q0 = Poly(std::move(c)).taylor_shift(a);
  {
    std::vector<BigInt> scaled = q0.coeffs();
    BigInt dpow(1);
    for (std::size_t i = 1; i < scaled.size(); ++i) {
      dpow *= d;
      scaled[i] *= dpow;
    }
    q0 = Poly(std::move(scaled));
  }

  // Roots on the closed band's boundary are exact cells; peel them so the
  // recursion sees an open (0, 1) problem with non-root endpoints.
  if (q0.coeff(0).is_zero()) {
    iso.emit_exact(BigInt(0), 0);
    do {
      q0 = Poly::divexact(q0, Poly{0, 1});
    } while (!q0.is_zero() && q0.coeff(0).is_zero());
  }
  if (!q0.is_constant() && q0.eval(BigInt(1)).is_zero()) {
    iso.emit_exact(BigInt(1), 0);
    do {
      q0 = Poly::divexact(q0, Poly{-1, 1});
    } while (!q0.is_constant() && q0.eval(BigInt(1)).is_zero());
  }
  if (!q0.is_constant()) {
    iso.isolate(q0, BigInt(0), 0);
  }
  std::sort(cells.begin(), cells.end(), cell_less);
  return cells;
}

IsolationOutput isolate_roots(const Poly& p) {
  check_arg(p.degree() >= 1, "isolate_roots: degree >= 1 required");
  IsolationOutput out;

  // A root at zero is exact; divide it out so the subdivision never meets
  // it.  A second x factor would mean the input is not squarefree.
  out.stripped = p;
  const bool zero_root = out.stripped.coeff(0).is_zero();
  if (zero_root) {
    out.stripped = Poly::divexact(out.stripped, Poly{0, 1});
    check_arg(!out.stripped.coeff(0).is_zero(),
              "isolate_roots: repeated root at zero (input not squarefree)");
    IsolatingCell zero;
    zero.exact = true;
    zero.scale = 0;
    out.cells.push_back(std::move(zero));  // lo == hi == 0
  }
  if (out.stripped.degree() == 0) return out;  // input was c * x

  // Every root lies in (-2^R, 2^R).  With zero divided out, a cell of the
  // stripped polynomial must not straddle it, so the two halves run apart
  // (the whole-interval subdivision would split there first anyway).
  const BigInt r = BigInt::pow2(root_bound_pow2(p));
  const auto add = [&](const BigInt& a, const BigInt& b) {
    auto cells = isolate_in_band(out.stripped, a, b, 0);
    out.cells.insert(out.cells.end(), std::make_move_iterator(cells.begin()),
                     std::make_move_iterator(cells.end()));
  };
  if (zero_root) {
    add(-r, BigInt(0));
    add(BigInt(0), r);
  } else {
    add(-r, r);
  }
  std::sort(out.cells.begin(), out.cells.end(), cell_less);
  return out;
}

}  // namespace pr::isolate
