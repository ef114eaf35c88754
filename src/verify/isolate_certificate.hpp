// Post-hoc certification of the Descartes isolator's output
// (isolate/descartes_isolate), which the general-input path refines for
// kRadii and for kPaper's fallback.
//
// The interleaving-tree certificate (verify/certificate.hpp) leans on the
// all-roots-real structure the paper assumes.  The kRadii strategy accepts
// general square-free inputs, so its gate is different: given the isolating
// cells, we check
//
//   * square-freeness: gcd(p, p') is constant (simple roots, so "one sign
//     change = one root" is sound);
//   * exactness: every exact cell's value really is a root of p;
//   * sign change: every open cell (lo, hi) has opposite one-sided signs
//     at its endpoints (>= 1 root inside, odd count);
//   * pairwise disjointness: cells are sorted and do not overlap, so no
//     root is counted twice;
//   * totality: the number of cells equals the Sturm count of distinct
//     real roots of p.
//
// Disjoint cells each holding >= 1 root, with as many cells as real roots,
// force *exactly one root per cell* -- isolation, certified by machinery
// (Sturm + one-sided sign evaluation) independent of the Descartes
// subdivision that produced the cells.
#pragma once

#include <string>
#include <vector>

#include "isolate/descartes_isolate.hpp"
#include "poly/poly.hpp"

namespace pr {

struct IsolationCertificate {
  bool valid = false;
  int distinct_real_roots = 0;        ///< Sturm count for p
  std::size_t cells_checked = 0;
  std::vector<std::string> failures;  ///< empty iff valid

  /// Human-readable audit trail.
  std::string to_string() const;
};

/// Certifies that `cells` isolate the real roots of the square-free
/// polynomial `p` (each cell open (lo, hi)/2^scale, or an exact point).
/// Never throws on a bad cell list -- failures are recorded.
IsolationCertificate certify_cells_isolated(
    const Poly& p, const std::vector<isolate::IsolatingCell>& cells);

/// Runs isolate::isolate_roots on `p` and certifies its output (handles
/// the zero-root stripping the isolator performs).  An input that is not
/// square-free gets an invalid certificate, without running the isolator.
IsolationCertificate certify_isolation(const Poly& p);

}  // namespace pr
