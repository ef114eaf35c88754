// Configuration of the multimodular fast paths.
//
// The exact BigInt pipeline remains the default; the multimodular paths
// are opt-in (enabled flag) and produce bit-identical results -- every
// reconstruction is exact under a proven coefficient bound, and every
// level of the remainder sequence is also checked against one held-out
// prime.  In the remainder sequence any irregularity (repeated roots,
// exhausted prime replacements, a failed or impossible held-out check)
// abandons the fast path and recomputes exactly; the tree polynomials have
// none to meet, since the sequence is exact by then and a prime dividing
// one of the c_t they invert is skipped.
#pragma once

#include <cstdint>
#include <vector>

namespace pr::modular {

struct ModularConfig {
  /// Master switch for both fast paths: the remainder sequence (above
  /// min_degree) and every internal non-spine tree polynomial, which then
  /// comes from the three-term recurrence modulo primes
  /// (modular/tree_poly.hpp).  It also selects the certified evaluations
  /// of the interval stage: the pre-interval, sieve and bisection signs
  /// come from filtered_sign_scaled, which climbs the precision ladder of
  /// poly/certified_sign.hpp and evaluates exactly only at a zero or at
  /// the ladder's cost limit, and Newton's steps from the same ladder's
  /// bounds on p(x) and p'(x) (same results, lower bit-cost counters).
  /// Off by default: the exact path is the verified baseline.
  bool enabled = false;

  /// Degrees below this use the exact remainder sequence (word-sized
  /// coefficients do not amortize the CRT setup).
  int min_degree = 24;

  /// Test seam: moduli to try *before* the deterministic table (each must
  /// be an odd prime below 2^62).  Lets tests force a known-bad first
  /// prime to exercise the replacement path (remainder sequence) or the
  /// skip (tree polynomials).
  std::vector<std::uint64_t> forced_primes;
};

}  // namespace pr::modular
