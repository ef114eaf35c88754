#include "poly/squarefree.hpp"

#include "support/error.hpp"

namespace pr {

SquarefreeReduction squarefree_reduce(const Poly& a, const Poly& g) {
  check_arg(a.degree() >= 1, "squarefree_reduce: degree >= 1");
  check_arg(!g.is_zero() && g.degree() < a.degree(),
            "squarefree_reduce: g is not gcd(a, a')");
  SquarefreeReduction out;
  if (g.degree() == 0) {
    out.part = a;
    out.factors.push_back({a, 1});
    return out;
  }
  // Musser's algorithm.  Writing a = prod_i P_i^i with the P_i pairwise
  // coprime and squarefree:
  //   G   = gcd(a, a')  = prod_i P_i^{i-1}
  //   C_1 = a / G       = prod_i P_i          (each distinct factor once)
  //   W_1 = G
  //   Y_k = gcd(C_k, W_k) = prod_{i>k} P_i
  //   P_k = C_k / Y_k;  C_{k+1} = Y_k;  W_{k+1} = W_k / Y_k.
  // All divisions are exact over Z because every divisor is primitive
  // (Gauss's lemma).
  out.part = Poly::divexact(a, g).primitive_part();
  Poly c = out.part;
  Poly w = g;
  unsigned k = 1;
  while (c.degree() > 0) {
    const Poly y = poly_gcd(c, w);
    const Poly factor = Poly::divexact(c, y).primitive_part();
    if (factor.degree() > 0) out.factors.push_back({factor, k});
    c = y;
    if (w.degree() > 0 && y.degree() >= 0 && !y.is_zero()) {
      w = Poly::divexact(w, y).primitive_part();
    }
    ++k;
  }
  return out;
}

std::vector<SquarefreeFactor> squarefree_decompose(const Poly& p) {
  check_arg(!p.is_zero(), "squarefree_decompose: zero polynomial");
  if (p.degree() == 0) return {};
  const Poly a = p.primitive_part();
  return squarefree_reduce(a, poly_gcd(a, a.derivative())).factors;
}

Poly squarefree_part(const Poly& p) {
  check_arg(!p.is_zero(), "squarefree_part: zero polynomial");
  if (p.degree() <= 0) return Poly{1};
  const Poly a = p.primitive_part();
  return squarefree_reduce(a, poly_gcd(a, a.derivative())).part;
}

}  // namespace pr
