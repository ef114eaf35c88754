// Host autotuner: measures the modular subsystem's Garner digit cost on
// the machine it runs on and emits a CalibrationProfile.
//
// What is measured (docs/TUNING.md derives the formula): batched Garner
// reconstruction at several prime counts, converted to word-multiply
// units against a schoolbook mod-p convolution of known model cost, and
// least-squares fitted to units(k) = a*k + b*k^2 per value
// (crt_digit_units_linear / _quadratic).
//
// The autotuner changes no tuning state (its reconstructions do add to
// the modular counters); it lives behind an explicit --calibrate mode
// rather than running at startup because it takes seconds and its timings
// are disturbed by concurrent work.
#pragma once

#include <iosfwd>

#include "calibrate/profile.hpp"

namespace pr::calibrate {

struct AutotuneOptions {
  /// Best-of repeats per timed cell (higher = less noise, slower).
  int repeats = 3;
  /// Fewer prime counts and iterations: faster, at the price of a
  /// noisier fit.  The test suite's smoke mode.
  bool quick = false;
  /// Stream a human-readable measurement table while running.
  std::ostream* log = nullptr;
};

/// Runs the microbenchmark and returns the measured profile, keyed by
/// host_profile_key().
CalibrationProfile autotune(const AutotuneOptions& opt = {});

}  // namespace pr::calibrate
