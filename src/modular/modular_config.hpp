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

  /// Worker threads for the *standalone* multimodular remainder sequence
  /// (compute_remainder_sequence_multimodular); the parallel driver
  /// ignores this and schedules per-prime work on its own pool.  1 = run
  /// inline.
  int num_threads = 1;

  /// Degrees below this use the exact remainder sequence (word-sized
  /// coefficients do not amortize the CRT setup).
  int min_degree = 24;

  /// Batch several per-prime PRS images into one TaskPool task when the
  /// per-image cost model says a single image is too small to amortize
  /// dispatch (below ~degree 40).  Purely a scheduling change; the task
  /// work floor comes from the runtime tuning (modular/tuning.hpp).
  bool batch_images = true;

  /// Fan the per-coefficient Garner dots of one CRT level out across the
  /// pool only when coefficient_count x prime_count clears this threshold
  /// (levels below it run the wave loop inline on one task).  Above it,
  /// the per-level wave model (CrtWaveModel, modular/tuning.hpp) sizes
  /// the fan-out to the level's Garner work, quadratic in its prime
  /// count.
  std::size_t crt_wave_min_work = 4096;

  /// After reconstruction, re-verify every image at one held-out prime
  /// (cost ~1/k of the total); a mismatch falls back to the exact path
  /// instead of surfacing a wrong result.
  bool paranoid_check = true;

  /// Test seam: moduli to try *before* the deterministic table (each must
  /// be an odd prime below 2^62).  Lets tests force a known-bad first
  /// prime to exercise the replacement path (remainder sequence) or the
  /// skip (tree polynomials).
  std::vector<std::uint64_t> forced_primes;
};

}  // namespace pr::modular
