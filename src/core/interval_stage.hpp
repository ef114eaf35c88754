// The per-node root-approximation stage (Section 2.2's case analysis).
//
// A tree node with polynomial P of degree d receives the sorted,
// mu-approximated roots y~_1 <= ... <= y~_{d-1} of its two children
// (merged by the SORT task), padded with the exact sentinels
// y~_0 = -2^R and y~_d = +2^R.  Exactly one root x_i of P lies in each
// true interval [y_i, y_{i+1}]; this stage computes ceil(2^mu x_i) for
// every i.
//
// The paper's Case 1 / 2a / 2b / 2c analysis is implemented with exact
// one-sided signs (sign_right_limit), which makes the parity-based root
// counting correct even when an interleaving point coincides exactly with
// a root of P -- a real occurrence for, e.g., Wilkinson-style inputs with
// integer roots.  See DESIGN.md "Known deviations".
//
// The trailing `certified_probes` flag carries ModularConfig::enabled:
// when set, every sign-only probe (the pre-interval signs, the sieve and
// bisection) comes from filtered_sign_scaled, the precision ladder of
// poly/certified_sign.hpp, which evaluates exactly only at a zero or at
// its cost limit, and Newton's steps come from the same ladder's bounds.
// A nonzero sign at K is also its right limit.  The results and
// IntervalStats are the same either way; only the pre-interval, sieve,
// bisection and Newton bit-cost counters fall.
//
// The stage is split the same way the paper's task system splits it
// (Section 3.2): analyze_interleave_point == one PREINTERVAL task,
// solve_one_interval == one INTERVAL task.
#pragma once

#include <cstddef>
#include <vector>

#include "core/interval_solver.hpp"
#include "poly/poly.hpp"

namespace pr {

/// Sign data gathered at one interleaving point K (scaled by 2^mu):
/// everything an INTERVAL task needs about that point.
struct InterleavePointInfo {
  /// sign of P at (K/2^mu)^+ (right limit; never 0 for squarefree P).
  int sign_right_at = 0;
  /// sign of P at ((K-1)/2^mu)^+.
  int sign_right_at_minus = 0;
  /// sign of P at (K-1)/2^mu exactly (0 iff that grid point is a root).
  int sign_at_minus = 0;
};

/// PREINTERVAL task: evaluates P around the interleaving point K.
InterleavePointInfo analyze_interleave_point(const Poly& p, const BigInt& k,
                                             std::size_t mu,
                                             bool certified_probes = false);

/// Number of roots of p that are <= the point t/2^mu, modulo 2, decided
/// from the right-limit sign: sign(p(t^+)) == sign(p(-inf)) iff the count
/// is even.
bool count_leq_is_even(const Poly& p, int sign_right_at_t);

/// INTERVAL task: computes ceil(2^mu x_i) for the unique root x_i of p in
/// [y_i, y_{i+1}], given the mu-approximations k_lo = y~_i, k_hi = y~_{i+1}
/// and the point data from the PREINTERVAL tasks.  `index` is i (0-based):
/// the number of roots of p strictly smaller than the interval's.
BigInt solve_one_interval(const Poly& p, int index, const BigInt& k_lo,
                          const BigInt& k_hi,
                          const InterleavePointInfo& info_lo,
                          const InterleavePointInfo& info_hi, std::size_t mu,
                          const IntervalSolverConfig& config,
                          IntervalStats* stats, bool certified_probes = false);

/// Convenience sequential driver: runs the whole stage for one node.
/// `ys` are the merged child approximations (size d-1), `bound_scaled` is
/// 2^(R+mu) with [-2^R, 2^R] enclosing all roots.  Returns the d
/// approximated roots of p in nondecreasing order.
std::vector<BigInt> solve_node_intervals(const Poly& p,
                                         const std::vector<BigInt>& ys,
                                         std::size_t mu,
                                         const BigInt& bound_scaled,
                                         const IntervalSolverConfig& config,
                                         IntervalStats* stats,
                                         bool certified_probes = false);

}  // namespace pr
