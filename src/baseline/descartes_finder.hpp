// Descartes-rule root isolation (Collins-Akritas bisection), a second,
// modern sequential comparator alongside the Sturm baseline.
//
// The method the paper compared against (PARI 1991) predates the modern
// standard for real-root isolation; this module applies that standard:
// the library's one Collins-Akritas isolator (isolate/descartes_isolate)
// isolates the roots in (-2^R, 2^R), and the same hybrid interval solver
// the tree algorithm uses refines each cell.
#pragma once

#include <vector>

#include "core/interval_solver.hpp"
#include "isolate/descartes_isolate.hpp"
#include "poly/poly.hpp"

namespace pr {

/// Computes the mu-approximations ceil(2^mu x) of every distinct real
/// root x of the squarefree polynomial p, by Collins-Akritas isolation +
/// hybrid refinement.  Results are nondecreasing and bit-identical to the
/// other finders'.
std::vector<BigInt> descartes_find_roots(const Poly& p, std::size_t mu,
                                         const IntervalSolverConfig& config,
                                         IntervalStats* stats);

}  // namespace pr
