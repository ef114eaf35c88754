// Descartes (Collins-Akritas) real-root isolation: the library's one
// sign-variation subdivision.
//
// An interval is mapped affinely onto (0, 1) and bisected; Descartes' rule
// of signs on the Moebius transform (1+x)^n q(1/(1+x)) bounds the number
// of roots in each piece, and Vincent's theorem guarantees the bound
// reaches 0 or 1 after finitely many splits for a squarefree input.
// isolate_roots runs it over the root bound interval (-2^R, 2^R); the
// kRadii strategy refines its cells with QIR, and the Descartes baseline
// (baseline/descartes_finder) with the paper's interval solver.
//
// Cells are open intervals with their one-sided endpoint signs recorded,
// or exact dyadic roots, so either refinement consumes them unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "bigint/bigint.hpp"
#include "poly/poly.hpp"

namespace pr {

/// Number of sign variations in the coefficient sequence (Descartes' rule
/// of signs: the number of positive roots is at most this, and equal to
/// it modulo 2).
int descartes_sign_variations(const Poly& p);

/// Upper bound, via Descartes' rule on the Moebius transform, for the
/// number of roots of q in the open interval (0, 1).  Exact when it
/// returns 0 or 1 (for squarefree q).
int descartes_bound_01(const Poly& q);

}  // namespace pr

namespace pr::isolate {

/// One isolating cell for a real root of the (squarefree) working
/// polynomial.  Either an exact dyadic root (lo == hi == 2^scale * root) or
/// an open interval (lo/2^scale, hi/2^scale) containing exactly one root,
/// with the one-sided endpoint signs recorded.
struct IsolatingCell {
  BigInt lo;
  BigInt hi;
  std::size_t scale = 0;
  bool exact = false;
  int s_lo = 0;  ///< sign of p at (lo/2^scale)^+ (isolated cells only)
  int s_hi = 0;  ///< sign of p at (hi/2^scale)^- (isolated cells only)
};

/// True iff cell a lies strictly left of cell b (compares the dyadic
/// positions across scales; cells never overlap, so left endpoints order).
bool cell_less(const IsolatingCell& a, const IsolatingCell& b);

struct IsolationOutput {
  /// All real-root cells of the input, sorted left to right.
  std::vector<IsolatingCell> cells;
  /// The polynomial the non-exact cells' endpoint signs refer to: the input
  /// with a root at zero divided out (equal to the input when p(0) != 0).
  /// Refinement of the isolated cells must evaluate THIS polynomial; the
  /// zero root, if any, appears as an exact cell.
  Poly stripped;
};

/// Collins-Akritas subdivision of p over the closed interval
/// [a/2^w, b/2^w] (a < b).  Roots at the interval's endpoints are emitted
/// as exact cells.  Throws InvalidArgument if the subdivision exceeds the
/// squarefree depth bound (i.e. the input has a repeated root).
std::vector<IsolatingCell> isolate_in_band(const Poly& p, const BigInt& a,
                                           const BigInt& b, std::size_t w);

/// Isolation of every real root of a squarefree polynomial with
/// p.degree() >= 1: a root at zero becomes an exact cell and is divided
/// out, then the subdivision covers (-2^R, 2^R), R = root_bound_pow2(p),
/// split at zero when zero was a root so no cell straddles it.  Complex
/// roots are fine; only the real ones produce cells.
IsolationOutput isolate_roots(const Poly& p);

}  // namespace pr::isolate
