// Persisted calibration profiles.
//
// A CalibrationProfile is the serializable record of one host
// calibration run (calibrate/autotune.hpp): the runtime-tunable cost
// coefficients of the modular subsystem (modular/tuning.hpp), keyed by
// the host they were measured on.  The key matters because every value
// in the profile is a *speed* statement about specific silicon: a Garner
// digit cost measured on one microarchitecture, or under AVX-512 kernels,
// is meaningless under another, so loading checks the key and falls back
// to the compiled-in defaults on any mismatch (calibrate/calibrate.hpp).
//
// Determinism contract (the reason profiles are safe to share and safe
// to get wrong): every profile field moves only *how many* CRT wave tasks
// share a reconstruction, never *what* it computes, so a stale, corrupt,
// or adversarial profile can cost time but can never change a RootReport.
// That is also why the loader's failure mode is "diagnose and fall back",
// not "abort".
//
// The on-disk format is a flat JSON object, one "key": value pair per
// line (the writer emits exactly this shape; the reader accepts any
// whitespace but stays line-oriented so diagnostics can point at the
// offending line, mirroring the TaskTrace loader in sched/trace.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace pr::calibrate {

/// Identity of the host a profile was measured on.  All three components
/// must match for a persisted profile to be applied: the silicon (cpu),
/// the kernel table actually selected at startup (isa -- "scalar",
/// "avx2", "avx512"; POLYROOTS_SIMD caps change this, which is exactly
/// why it is part of the key), and the compiler the library was built
/// with (build -- codegen differences move scalar crossovers).
struct ProfileKey {
  std::string cpu;
  std::string isa;
  std::string build;

  friend bool operator==(const ProfileKey&, const ProfileKey&) = default;
};

/// The key describing *this* process: cpu model from /proc/cpuinfo (or
/// "unknown" when unreadable), simd::isa_name(simd::active_isa()), and
/// the compiler version baked in at build time.
ProfileKey host_profile_key();

/// One complete calibration: every runtime-tunable constant.  Field
/// defaults are the compiled-in values, so a default-constructed profile
/// applied via calibrate::apply() is a no-op in behaviour.
struct CalibrationProfile {
  /// Format version; load() rejects files written by any other version
  /// rather than guessing at field semantics.
  static constexpr int kVersion = 2;

  int version = kVersion;
  ProfileKey key;

  /// Garner digit cost per value: linear * k + quadratic * k^2 units at
  /// prime count k (modular/tuning.hpp).
  double crt_digit_units_linear = 2.0;
  double crt_digit_units_quadratic = 1.0;

  friend bool operator==(const CalibrationProfile&,
                         const CalibrationProfile&) = default;
};

/// Serializes `p` as the flat JSON object described in the file comment.
std::string to_json(const CalibrationProfile& p);

/// Parses a profile from JSON text.  Throws pr::InvalidArgument with
/// "calibration profile: line N: why" context on malformed input,
/// unknown keys, a version other than kVersion, or a truncated object
/// (missing fields); `who` overrides the message prefix (callers pass
/// the file path).  Numeric fields are range-checked on *apply*, not
/// here -- parse errors are about shape, clamping is a tuning concern.
CalibrationProfile from_json(const std::string& text,
                             const std::string& who = "calibration profile");

/// Writes to_json(p) to `path`.  Throws pr::Error when the file cannot
/// be written.
void save_profile(const CalibrationProfile& p, const std::string& path);

/// Reads and parses `path`.  Throws pr::Error when the file cannot be
/// read, pr::InvalidArgument (with path and line context) when it does
/// not parse.
CalibrationProfile load_profile(const std::string& path);

/// Short stable identifier for bench output: "defaults-<isa>" for a
/// default-constructed profile (ignoring the key), else
/// "cal-<fnv1a64 of the serialized profile, 8 hex digits>-<isa>".
std::string profile_id(const CalibrationProfile& p);

}  // namespace pr::calibrate
