// The Interval Problem solver of Section 2.2.
//
// Given an open interval (lo/2^mu, hi/2^mu) that contains exactly one
// (simple) root x of a polynomial p, with non-zero endpoint signs, computes
// the mu-approximation ceil(2^mu x).
//
// The default (paper) mode is the hybrid three-phase method:
//   1. double-exponential sieve  -- narrows fast when the root hugs one end;
//      O(1) expected probes for a uniformly placed root,
//   2. bisection                 -- exactly ceil(log2(10 d^2)) probes, after
//      which any point of the bracket is a good Newton start
//      (Renegar's Lemma 2.1 via the strategy of [BT90]),
//   3. safeguarded integer Newton -- quadratic convergence; a step that
//      leaves the bracket or fails to shrink it falls back to a bisection
//      step, so termination never depends on the Newton theory.
//
// Results are exact: points are integers at a working scale w = mu +
// guard, and p is evaluated with the scaled Horner rule
// (Poly::eval_scaled).  With modular arithmetic on, the sign-only probes
// of the sieve and of bisection climb the precision ladder of
// poly/certified_sign.hpp (filtered_sign_scaled), which evaluates exactly
// only at a zero or at its cost limit; a certified sign is the exact
// sign, so every decision is the same.  Newton takes p(x) and p'(x) from
// the same ladder, from w + 192 bits, and its step from their bounds
// (newton_step_scaled), climbing while they do not fix it, so every
// iterate is the exact one.  Regula falsi always uses the exact value.
// Pure-bisection and no-sieve modes exist for the ablation bench (Eq. 38
// vs Eq. 41).
#pragma once

#include <cstddef>
#include <cstdint>

#include "bigint/bigint.hpp"
#include "poly/poly.hpp"

namespace pr {

/// Evaluation/iteration counters for the three sub-phases; feeds the
/// model-vs-measured comparison of Figures 6-7.
struct IntervalStats {
  std::uint64_t sieve_evals = 0;
  std::uint64_t bisect_evals = 0;
  std::uint64_t newton_iters = 0;
  std::uint64_t newton_evals = 0;   ///< includes derivative evaluations
  std::uint64_t fallback_bisects = 0;  ///< Newton steps demoted to bisection
  std::uint64_t intervals_solved = 0;
  std::uint64_t case1 = 0, case2a = 0, case2b = 0, case2c = 0;

  IntervalStats& operator+=(const IntervalStats& o);
  std::uint64_t total_evals() const {
    return sieve_evals + bisect_evals + newton_evals;
  }
};

struct IntervalSolverConfig {
  enum class Mode {
    kHybrid,          ///< sieve + bisection + Newton (the paper's method)
    kBisectionNewton, ///< no sieve (ablation)
    kPureBisection,   ///< bisection only (ablation)
    kRegulaFalsi,     ///< sieve + bisection + Illinois regula falsi: one of
                      ///< the alternative refinement methods [BT90] alludes
                      ///< to ("Other methods are described in [BT90]");
                      ///< derivative-free, 1 evaluation per iteration
  };
  Mode mode = Mode::kHybrid;
  /// Extra guard bits added to the working scale beyond mu.
  std::size_t guard_bits = 8;
};

/// Computes ceil(2^mu x) for the unique root x of p in the open interval
/// (lo/2^mu, hi/2^mu).  Preconditions: lo < hi; sign(p(lo/2^mu)) == s_lo,
/// sign(p(hi/2^mu)) == s_hi, s_lo * s_hi == -1 (for a point that is itself
/// a root of p, pass the appropriate one-sided sign).  `stats` may be null.
/// `certified_probes` (ModularConfig::enabled on the pipeline's path)
/// takes the sieve and bisection signs from filtered_sign_scaled and
/// Newton's values and steps from the precision ladder: the same result
/// and IntervalStats, lower bit-cost counters.
BigInt solve_isolated_interval(const Poly& p, const BigInt& lo,
                               const BigInt& hi, int s_lo, int s_hi,
                               std::size_t mu,
                               const IntervalSolverConfig& config,
                               IntervalStats* stats,
                               bool certified_probes = false);

}  // namespace pr
