// Certified root-radii estimation (Pan-Zhao style preconditioning,
// arXiv:1501.05386).
//
// The estimator applies N Dandelin-Graeffe root-squaring iterations to the
// input -- all arithmetic exact BigInt (schoolbook, or Karatsuba when
// enabled) -- and then certifies
// dyadic split radii of the iterate with exact Pellet tests:
//
//   |b_k| t^k > sum_{i != k} |b_i| t^i   at   t = 2^e
//
// implies (Rouche against b_k x^k on |x| = t) that the iterate has exactly
// k roots in |x| < t and none on the circle.  Because the iterate's roots
// are the 2^N-th powers of the input's, each certified split radius maps
// back to 2^(e / 2^N), i.e. the k-th annulus boundary is known to a
// relative error of 2^(1/2^N) - 1 before any sign of the input polynomial
// is ever evaluated.  Candidate (e, k) pairs come from the Newton polygon
// of the iterate's coefficient bit-lengths; the certification itself never
// trusts the polygon.
//
// The output is a sequence of disjoint open annuli with exact root counts
// (complex roots included) whose union contains every root of the input.
// Annuli with count 0 are omitted: the space between two consecutive
// reported annuli is certified root-free, which is what lets the Descartes
// stage skip it without a single sign evaluation.
#pragma once

#include <cstddef>
#include <vector>

#include "bigint/bigint.hpp"
#include "isolate/isolate_config.hpp"
#include "poly/poly.hpp"

namespace pr::isolate {

/// Open annulus inner/2^guard < |z| < outer/2^guard holding `count` roots
/// of the input (with multiplicity, complex roots included).  inner == 0
/// encodes a disk (no certified inner boundary below 2^-guard).
struct Annulus {
  BigInt inner;  ///< dyadic lower radius, scaled by 2^guard_bits
  BigInt outer;  ///< dyadic (strict) upper radius, scaled by 2^guard_bits
  int count = 0;
};

struct RootRadiiResult {
  int graeffe_iters = 0;
  std::size_t guard_bits = 0;
  /// Strictly increasing, disjoint, counts sum to the degree (after zero
  /// roots are stripped by the caller).  Only count > 0 annuli appear.
  std::vector<Annulus> annuli;
  // Instrumentation for the bench and the differential tests.
  int pellet_tests = 0;       ///< exact Pellet comparisons performed
  int certified_splits = 0;   ///< split radii that passed (incl. inner/outer)
  int polygon_corners = 0;    ///< interior Newton-polygon candidates
};

/// floor(sqrt(x)) for x >= 0 (Newton iteration; exact).
BigInt isqrt_floor(const BigInt& x);

/// One Dandelin-Graeffe iteration: returns q with q(x^2) = +-p(x)p(-x),
/// normalized so the leading coefficient stays positive.  deg q == deg p
/// and the roots of q are the squares of the roots of p.
Poly graeffe_iteration(const Poly& p);

/// Certified annuli for the roots of p.  Preconditions: deg p >= 1 and
/// p(0) != 0 (strip zero roots first; they are exact).  Works for any
/// integer polynomial; squarefreeness is NOT required.
RootRadiiResult estimate_root_radii(const Poly& p, const RadiiConfig& config);

}  // namespace pr::isolate
