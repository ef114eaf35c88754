// Post-hoc certification of root-finder output.
//
// A RootReport claims: "polynomial p has exactly these root cells".  This
// module re-derives that claim by machinery independent of the tree
// algorithm -- Sturm counts and exact sign evaluations -- and packages the
// evidence so a consumer (or a test) can audit it:
//
//   * totality: the number of certified cells equals the Sturm count of
//     distinct real roots of p;
//   * per cell ((k-1)/2^mu, k/2^mu]: the exact number of roots inside,
//     plus the witness (a sign change across the cell, an exact root at
//     the right endpoint, or a Sturm count for multi-root cells);
//   * separation: cells are nondecreasing and jointly exhaust the roots;
//   * multiplicity: claimed multiplicities sum to deg p (when provided).
//
// This is what makes the library's answers *checkable* rather than merely
// tested: certify() can be run on any output, including ones produced by
// the parallel driver or the baselines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/root_finder.hpp"
#include "poly/poly.hpp"
#include "poly/remainder_sequence.hpp"

namespace pr {

enum class CellWitness : std::uint8_t {
  kSignChange,   ///< p changes sign strictly inside the cell
  kExactRoot,    ///< the cell's right endpoint is a root of p
  kSturmCount,   ///< >= 2 roots share the cell; count certified by Sturm
};

struct CellCertificate {
  BigInt k;                ///< cell is ((k-1)/2^mu, k/2^mu]
  int roots_inside = 0;    ///< exact distinct-root count in the cell
  CellWitness witness = CellWitness::kSignChange;
};

struct RootCertificate {
  bool valid = false;
  std::size_t mu = 0;
  int distinct_roots = 0;          ///< Sturm count for the squarefree part
  std::vector<CellCertificate> cells;
  std::vector<std::string> failures;  ///< empty iff valid

  /// Human-readable audit trail.
  std::string to_string() const;
};

/// Certifies `report` against `p` (the original polynomial; repeated
/// roots allowed).  Never throws on a bad report -- failures are recorded.
RootCertificate certify(const Poly& p, const RootReport& report);

/// Certifies a bare list of mu-scaled root cells against a squarefree
/// polynomial (for the baseline finders).
RootCertificate certify_cells(const Poly& squarefree,
                              const std::vector<BigInt>& roots,
                              std::size_t mu);

/// Independent spot-check of a *normal* remainder sequence at one prime:
/// recomputes the image sequence over Z/p by *field division* (true
/// remainders, F_{i+1} = -(c_i^2/c_{i-1}^2) * (F_{i-1} mod F_i)) -- not
/// the integer coefficient recurrence the library computes with -- and
/// compares it against the reduction of every stored F_i.  Returns false
/// on any mismatch.  A prime at which some leading coefficient vanishes
/// makes the remaining levels inconclusive; the check then stops early and
/// passes (pick another prime).  `prime` must be an odd prime below 2^62,
/// and the sequence must hold every level: a partial one throws
/// InvalidArgument.  Appends a diagnostic to `why` (if non-null) on
/// failure.
bool verify_remainder_sequence_mod(const RemainderSequence& rs,
                                   std::uint64_t prime,
                                   std::string* why = nullptr);

}  // namespace pr
