// Configuration of the multimodular fast paths.
//
// The exact BigInt pipeline remains the default; the multimodular paths
// are opt-in (enabled flag) and produce bit-identical results -- every
// reconstruction is exact under a proven coefficient bound.  In the
// remainder sequence any irregularity (repeated roots, exhausted prime
// replacements, a failed held-out-prime check) abandons the fast path and
// recomputes exactly; the tree polynomials have none to meet, since the
// sequence is exact by then and a prime dividing one of the c_t they
// invert is skipped.
#pragma once

#include <cstdint>
#include <vector>

namespace pr::modular {

struct ModularConfig {
  /// Master switch for both fast paths: the remainder sequence (above
  /// min_degree) and every internal non-spine tree polynomial, which then
  /// comes from the three-term recurrence modulo primes
  /// (modular/tree_poly.hpp).  It also selects the certified sign probes
  /// of the interval stage: the pre-interval, sieve and bisection signs
  /// try the fixed-precision certified_sign_scaled first and fall back to
  /// the exact value (poly/certified_sign.hpp; same results, lower
  /// bit-cost counters).  Off by default: the exact path is the verified
  /// baseline.
  bool enabled = false;

  /// Degrees below this use the exact remainder sequence (word-sized
  /// coefficients do not amortize the CRT setup).
  int min_degree = 24;

  /// Batch several per-prime PRS images into one TaskPool task when the
  /// per-image cost model says a single image is too small to amortize
  /// dispatch (below ~degree 40).  Purely a scheduling change; the task
  /// work floor is kImageBatchMinTaskUnits (modular/modular_prs.hpp).
  bool batch_images = true;

  /// Check every reconstructed level against the image at one held-out
  /// prime (cost ~1/k of the total); a mismatch, or a held-out image that
  /// cannot be computed, falls back to the exact path instead of
  /// surfacing an unchecked result.
  bool paranoid_check = true;

  /// Test seam: moduli to try *before* the deterministic table (each must
  /// be an odd prime below 2^62).  Lets tests force a known-bad first
  /// prime to exercise the replacement path (remainder sequence) or the
  /// skip (tree polynomials).
  std::vector<std::uint64_t> forced_primes;
};

}  // namespace pr::modular
