// Baseline sequential real-root finder: Sturm-sequence isolation followed
// by the same hybrid interval refinement the tree algorithm uses.
//
// This plays the role of the paper's Figure-8 comparator (the PARI `roots`
// routine, 1991): a classical isolate-and-refine method whose isolation
// cost is insensitive to the output precision mu -- exactly the behaviour
// the paper observed ("the PARI algorithm seemed insensitive to this
// parameter").  The tests also use it as an independent oracle for the
// general-input path (src/isolate/), which answers the inputs the tree
// rejects; no solve runs it.
#pragma once

#include <vector>

#include "core/interval_solver.hpp"
#include "poly/poly.hpp"

namespace pr {

/// Computes the mu-approximations ceil(2^mu x) of every distinct real root
/// x of `p`.  `p` must be squarefree (callers reduce first); throws
/// InvalidArgument otherwise if detectable.  Results are nondecreasing.
std::vector<BigInt> sturm_find_roots(const Poly& p, std::size_t mu,
                                     const IntervalSolverConfig& config,
                                     IntervalStats* stats);

}  // namespace pr
