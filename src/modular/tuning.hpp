// The cost model behind the modular subsystem's scheduling decisions: the
// per-level CRT wave count of the multimodular remainder sequence and the
// per-prime image batch size.
//
// Costs are in word-multiply units (1 unit == one raw 64x64
// multiply-accumulate).  Reconstructing one coefficient from k residues
// costs ~k^2/2 multiply-accumulates in the Garner digit stage plus ~k^2/2
// in the Horner limb assembly, with a linear term for the per-digit fold
// and bookkeeping, so a level of `cnt` coefficients at prime count k
// carries
//
//   units(cnt, k) = cnt * (crt_digit_units_linear * k
//                          + crt_digit_units_quadratic * k^2)
//
// of work and fans out to ceil(units / kCrtUnitsPerWave) wave tasks,
// capped by the slots the task graph allocated (crt_wave_fanout_cap) and
// by one wave per coefficient.  The two Garner coefficients are runtime
// state with the compiled values as defaults, so the calibration
// subsystem (src/calibrate/) can replace them with host-measured values
// without a rebuild; everything else here is a constant.
//
// Determinism contract: these values move only how many tasks share the
// work, never what it computes -- every wave and batch split reconstructs
// the same values (see modular/crt.hpp).  The tuning is intended to be
// published once at startup (calibration load) before any worker threads
// exist; reads are relaxed atomic loads.  Within one reconstruction level
// the wave count is decided once by the level's prepare task, so
// concurrent waves always agree.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pr::modular {

/// The runtime-tunable part: the Garner digit cost per value,
/// crt_digit_units_linear * k + crt_digit_units_quadratic * k^2 units at
/// prime count k.
struct ModularTuning {
  double crt_digit_units_linear = 2.0;
  double crt_digit_units_quadratic = 1.0;
};

/// Target work per CRT wave task; waves below this don't amortize their
/// dispatch (~2500 units) and queue traffic.
inline constexpr double kCrtUnitsPerWave = 16384.0;
/// Wave slots per reconstruction level: min(kCrtMaxFanout,
/// kCrtFanoutPerThread * threads).
inline constexpr std::size_t kCrtMaxFanout = 16;
inline constexpr std::size_t kCrtFanoutPerThread = 2;
/// Per-prime PRS images are fused into one task until it clears this much
/// modeled work (task dispatch is ~2500 units, so dispatch stays under
/// ~12% of a task).
inline constexpr double kImageBatchMinTaskUnits = 20000.0;

/// The current tuning: compiled defaults until set_modular_tuning.
ModularTuning modular_tuning();

/// Publishes a new tuning for all threads.  Each coefficient is sanitized
/// into [0, 1024] (non-finite values become 0): a wild calibration profile
/// can degrade speed, never correctness or termination.
void set_modular_tuning(const ModularTuning& t);

/// Back to the compiled defaults (test hygiene).
void reset_modular_tuning();

/// Static wave-slot count per reconstruction level for `threads` workers:
/// min(kCrtMaxFanout, kCrtFanoutPerThread * threads), at least 1.  This is
/// the number of wave tasks the graph builds; crt_level_waves decides how
/// many of them do work.
std::size_t crt_wave_fanout_cap(int threads);

/// Model wave count for one level of `cnt` coefficients at prime count
/// `k`, capped by `cap` (the allocated slots, already clamped to cnt by
/// the caller).  Returns at least 1; monotone nondecreasing in cnt and k.
std::size_t crt_level_waves(const ModularTuning& t, std::size_t cnt,
                            std::size_t k, std::size_t cap);

}  // namespace pr::modular
