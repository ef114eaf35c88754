// Squarefree decomposition (Musser's algorithm).
//
// Used to (a) preprocess inputs with repeated roots for the tree algorithm
// (Section 2.3 of the paper handles repeated roots by an extended remainder
// sequence; see DESIGN.md for why this reproduction realizes that stage as
// squarefree reduction) and (b) report root multiplicities.
//
// Every entry point goes through squarefree_reduce, which starts from
// g = gcd(a, a').  The paper path does not compute g here: its remainder
// sequence already ends in F_{n*} ~ g (Section 2.3, footnote 2), and the
// driver passes that in.  The one-argument functions compute g by a
// primitive PRS first.
#pragma once

#include <vector>

#include "poly/poly.hpp"

namespace pr {

/// One factor of the decomposition p = content * prod_k factor_k^{mult_k}.
struct SquarefreeFactor {
  Poly factor;        ///< primitive, squarefree, positive leading coeff
  unsigned multiplicity = 0;
};

/// The squarefree part of a polynomial and its decomposition, from one
/// division by gcd(a, a').
struct SquarefreeReduction {
  /// a / gcd(a, a'), primitive with positive leading coefficient.
  Poly part;
  /// Musser's decomposition of a, as squarefree_decompose(a) returns it.
  std::vector<SquarefreeFactor> factors;
};

/// Reduces a primitive polynomial `a` of degree >= 1 with g = gcd(a, a'),
/// primitive with positive leading coefficient (poly_gcd's
/// normalization): the squarefree part is one exact division a / g, and
/// Musser's loop starts from it and g.
SquarefreeReduction squarefree_reduce(const Poly& a, const Poly& g);

/// Musser's squarefree decomposition of a non-zero integer polynomial.
/// Factors with factor == 1 are omitted; multiplicities are strictly
/// increasing.  The product of factor^multiplicity equals p up to a
/// rational constant.  squarefree_reduce after one gcd.
std::vector<SquarefreeFactor> squarefree_decompose(const Poly& p);

/// The squarefree part p / gcd(p, p'), primitive with positive leading
/// coefficient.  Its roots are exactly the distinct roots of p.
/// squarefree_reduce after one gcd.
Poly squarefree_part(const Poly& p);

}  // namespace pr
