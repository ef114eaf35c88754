// Bottom-up computation of the tree polynomials (Sections 2.1 and 3.2) and
// of the per-node root approximations, one node at a time.
//
// The task graph (core/parallel_driver) schedules the same steps split
// into finer tasks; these one-node forms are the public layer calls a
// caller replays in postorder to attribute time per layer outside the
// graph (e2ebench, the tests' independent reference).  With modular
// arithmetic on, the graph shares one residue table and CRT basis across
// the internal non-spine nodes, where compute_node_poly builds a one-node
// table; the polynomials and the OpCounts are the same either way.
#pragma once

#include "core/interval_solver.hpp"
#include "core/interval_stage.hpp"
#include "core/tree.hpp"
#include "modular/modular_config.hpp"
#include "poly/remainder_sequence.hpp"

namespace pr {

/// Computes node.t (where applicable) and node.poly for one node, assuming
/// its children are done.  The COMPUTEPOLY step of Section 3.2.
/// When `modular` is non-null and enabled, an internal non-spine node
/// takes its polynomial straight from the remainder sequence by the
/// three-term recurrence modulo primes, with a one-node residue table and
/// CRT basis (bit-identical result; see modular/tree_poly.hpp).  It then
/// reads no child T, and its own t / has_t stay unset.
void compute_node_poly(Tree& tree, int idx, const RemainderSequence& rs,
                       const modular::ModularConfig* modular = nullptr);

/// mu-approximation of the root of a linear polynomial c1*x + c0:
/// ceil(2^mu * (-c0 / c1)), one exact ceiling division.
BigInt linear_root_approx(const Poly& p, std::size_t mu);

/// Merges the children's sorted root vectors into the interleaving-point
/// sequence for `idx` (the SORT task).  Children must be done.
std::vector<BigInt> merge_child_roots(const Tree& tree, int idx);

/// Analyzes the interleaving points `points[begin..end)` of polynomial
/// `p`, writing the results into `infos[begin..end)`.  With end == begin+1
/// this is exactly one of the paper's PREINTERVAL tasks; larger ranges are
/// the grain-coarsened ("chunked") variant the parallel driver schedules
/// when ParallelConfig::grain_chunk > 1 -- the same work, fewer
/// dispatches.  Results are independent of the chunking.
/// `certified_probes` as for analyze_interleave_point.
void analyze_interleave_range(const Poly& p, const std::vector<BigInt>& points,
                              std::size_t begin, std::size_t end,
                              std::size_t mu,
                              std::vector<InterleavePointInfo>& infos,
                              bool certified_probes = false);

/// Computes node.roots for one node whose polynomial and children's roots
/// are done (PREINTERVAL + INTERVAL steps).  `bound_scaled` = 2^(R+mu).
/// When `modular` is non-null and enabled, the sign-only probes and
/// Newton's steps are certified first, as in the task graph
/// (core/interval_stage.hpp): the same roots and stats, lower
/// pre-interval/sieve/bisection/Newton bit costs.
void compute_node_roots(Tree& tree, int idx, std::size_t mu,
                        const BigInt& bound_scaled,
                        const IntervalSolverConfig& config,
                        IntervalStats* stats,
                        const modular::ModularConfig* modular = nullptr);

}  // namespace pr
