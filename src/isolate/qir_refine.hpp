// Quadratic interval refinement (QIR), after Abbott and the certified
// variant of Kerber-Sagraloff (arXiv:1104.1362).
//
// Refines an isolating interval by secant prediction against a subdivision
// grid: the bracket (a, b) is split into N equal parts, the secant through
// (a, f(a)) and (b, f(b)) predicts the grid cell holding the root, and two
// sign evaluations check the prediction.  On success the bracket shrinks by
// a factor of N and N is squared (log2 N doubles -- this is what makes the
// iteration quadratically convergent once the secant model is accurate); on
// failure the sign information still shrinks the bracket, N falls back to
// sqrt(N), and a guaranteed bisection step keeps worst-case progress linear.
// Every step is certified by exact signs at dyadic points, so the bracket
// invariant (sign change across it) never depends on the convergence
// theory.  The signs and the secant's magnitudes come from the precision
// ladder of poly/certified_sign.hpp (certified_eval_scaled), entered at a
// precision P derived from the bracket width, log2 N and the coefficient
// size; it doubles P while a sign stays undecided and computes the exact
// scaled Horner value only at an exact zero or once P reaches the exact
// value's cost.  The secant index is taken only when the magnitude bounds'
// corners agree on it; while they straddle a grid-cell boundary, both
// bracket ends climb to the next rung.  Every iterate is therefore the one
// the exact evaluation would give.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bigint/bigint.hpp"
#include "isolate/isolate_config.hpp"
#include "poly/poly.hpp"

namespace pr::isolate {

/// Iteration counters; `max_subdiv_log2` reaching ~2x its starting value
/// per doubling step is the observable signature of quadratic convergence
/// (logged by bench_isolate).
struct QirStats {
  std::uint64_t iters = 0;
  std::uint64_t evals = 0;
  std::uint64_t successes = 0;       ///< secant prediction confirmed
  std::uint64_t failures = 0;        ///< prediction missed; N demoted
  std::uint64_t bisect_steps = 0;    ///< guaranteed-progress bisections
  std::uint64_t max_subdiv_log2 = 0; ///< largest log2 N a success used
  /// Exact scaled Horner values the ladder computed (at zeros and at its
  /// cost limit); not a count of points, so not part of `evals`.
  std::uint64_t exact_evals = 0;

  QirStats& operator+=(const QirStats& o);
};

/// Computes ceil(2^mu x) for the unique root x of p in the open interval
/// (lo/2^w, hi/2^w).  Preconditions: lo < hi; s_lo/s_hi are the (one-sided)
/// signs of p at the endpoints with s_lo * s_hi == -1.  Exact analogue of
/// solve_isolated_interval with the QIR iteration instead of the paper's
/// three-phase hybrid.  `stats` may be null.
BigInt qir_solve(const Poly& p, const BigInt& lo, const BigInt& hi, int s_lo,
                 int s_hi, std::size_t w, std::size_t mu,
                 const QirConfig& config, QirStats* stats);

}  // namespace pr::isolate
