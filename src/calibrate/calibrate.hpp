// Applying calibration profiles, and the process-startup load path.
//
// calibrate::startup() is the one hook the entry points call (the CLI,
// RootService construction, the benches): exactly once per process it
// checks the POLYROOTS_CALIBRATION environment variable and, when it
// names a readable profile whose key matches this host, installs the
// profile's cost coefficients.  EVERY failure mode -- unreadable file,
// malformed JSON, version mismatch, key mismatch -- degrades to the
// compiled-in defaults with a one-line stderr diagnostic; a calibration
// problem must never stop a root computation, because profiles only move
// how work is split, never its result (see calibrate/profile.hpp).
#pragma once

#include <string>

#include "calibrate/profile.hpp"

namespace pr::calibrate {

/// Installs a profile into the modular tuning store
/// (modular::set_modular_tuning, which clamps the values).  No key check
/// here -- callers that measured or constructed the profile themselves
/// (the autotuner, the tests) apply it directly.
void apply(const CalibrationProfile& p);

/// Back to the compiled-in defaults (applies a default-constructed
/// profile).
void reset();

/// The profile installed by the last apply()/reset() on this thread of
/// history -- "defaults-<isa>" until anything is applied.  Bench output
/// stamps this id into every BENCH_*.json row set.
std::string active_profile_id();

/// The result of one load-and-apply attempt (the startup path, exposed
/// separately so tests can drive it with a path instead of the
/// environment).
struct LoadResult {
  /// True when the profile was installed.
  bool applied = false;
  /// Empty on success; otherwise the reason the profile was ignored
  /// (also what startup() prints to stderr).
  std::string diagnostic;
};

/// Loads `path`, checks its key against host_profile_key(), applies on
/// match.  Never throws: every failure lands in LoadResult::diagnostic
/// and leaves the active tuning untouched.
LoadResult load_and_apply(const std::string& path);

/// Once per process: if POLYROOTS_CALIBRATION is set, load_and_apply()
/// it, printing the diagnostic (if any) to stderr.  Subsequent calls are
/// no-ops, so every entry point can call it unconditionally.
void startup();

}  // namespace pr::calibrate
