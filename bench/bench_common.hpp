// Shared helpers for the paper-reproduction bench binaries.
//
// Conventions:
//  * The paper reports mu in DECIMAL DIGITS (4..32); we convert with
//    mu_bits = ceil(digits * log2(10)).
//  * Every binary accepts `--full` to run the paper's complete grid
//    (n = 10..70); the default grid is reduced so the whole bench suite
//    finishes in a few minutes on a laptop.
//  * Inputs are characteristic polynomials of random symmetric 0/1
//    matrices (Section 5), three per degree, over a fixed seed so all
//    binaries see the same inputs.
#pragma once

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "calibrate/calibrate.hpp"
#include "polyroots.hpp"

namespace prbench {

/// The id every BENCH_*.json stamps into its header: "defaults-<isa>",
/// naming the mod-p kernel table the rows ran under.
inline std::string bench_profile_id() {
  return pr::calibrate::active_profile_id();
}

/// Canonical location for BENCH_*.json artifacts: the repository root when
/// known at configure time (POLYROOTS_REPO_ROOT, set by bench/CMakeLists),
/// else the current working directory.  Keeps the artifact location
/// independent of where the binary is invoked from (build tree, CI, ...).
inline std::string canonical_out_path(const char* filename) {
#ifdef POLYROOTS_REPO_ROOT
  return std::string(POLYROOTS_REPO_ROOT) + "/" + filename;
#else
  return filename;
#endif
}

inline std::size_t digits_to_bits(int digits) {
  return static_cast<std::size_t>(
      std::ceil(digits * std::log2(10.0)));
}

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// The paper's degree grid: 10, 15, ..., 70 (or a reduced version).
inline std::vector<int> degree_grid(bool full) {
  if (full) return {10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70};
  return {10, 20, 30, 40, 50};
}

/// The paper's precision grid in digits.
inline std::vector<int> digit_grid(bool full) {
  if (full) return {4, 8, 16, 24, 32};
  return {4, 16, 32};
}

/// Inputs per degree (the paper used 3).
inline int trials(bool full) { return full ? 3 : 1; }

/// Deterministic paper-style input: trial t of degree n.
inline pr::GeneratedInput input_for(int n, int trial) {
  pr::Prng rng(0x5eed0000ull + static_cast<std::uint64_t>(n) * 100 +
               static_cast<std::uint64_t>(trial));
  return pr::paper_input(static_cast<std::size_t>(n), rng);
}

inline void print_header(const char* what, const char* paper_ref) {
  std::cout << "==============================================================="
               "=\n"
            << what << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "==============================================================="
               "=\n";
}

}  // namespace prbench
