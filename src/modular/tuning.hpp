// Runtime-tunable cost-model constants for the modular subsystem's
// dispatch decisions.
//
// Every crossover in the mod-p fast paths -- the schoolbook-vs-NTT
// convolution cutoff (ntt_profitable), the per-prime image batch sizing
// (MultimodularPrs::image_batch), and the per-level CRT wave fan-out --
// is driven by a handful of machine constants measured on the reference
// box.  This header makes those constants *runtime state* with the
// compiled values as defaults, so the calibration subsystem
// (src/calibrate/) can replace them with host-measured values without a
// rebuild.
//
// Determinism contract: every constant here moves only WHERE a fast path
// engages, never what it computes -- both sides of every crossover are
// bit-identical by construction (see modular/ntt.hpp, modular/crt.hpp).
// The tuning is intended to be published once at startup (calibration
// load) before any worker threads exist; reads are relaxed atomic loads,
// so a mid-run update is safe but may be observed field-by-field.  Within
// one reconstruction level the wave count is decided once by the level's
// prepare task, so concurrent waves always agree.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pr::modular {

/// Cost model of one mod-p NTT vs schoolbook convolution, in word-multiply
/// units (1 unit == one raw 64x64 multiply-accumulate).
struct NttCostModel {
  /// Per-butterfly charge (one Montgomery multiply + two adds plus pass
  /// bookkeeping).  0 = auto: the per-ISA compiled default (3.0 when a
  /// vector kernel table is active, 4.0 scalar) -- see ntt_butterfly_units.
  double butterfly_units = 0.0;
  /// Operands shorter than this never profit (cheap early-out so the
  /// profitability test costs nothing for tiny products).
  std::uint32_t min_operand = 16;
};

/// Per-level CRT wave model.  Reconstructing one coefficient from k
/// residues costs ~k^2/2 multiply-accumulates in the Garner digit stage
/// plus ~k^2/2 in the Horner limb assembly, with a linear term for the
/// per-digit fold and bookkeeping -- so a level of `cnt` coefficients at
/// prime count k carries
///
///   units(cnt, k) = cnt * (digit_units_linear * k
///                          + digit_units_quadratic * k^2)
///
/// of work, and fans out to ceil(units / units_per_wave) wave tasks,
/// capped by the slots the task graph allocated
/// (crt_wave_fanout_cap) and by one wave per coefficient.
struct CrtWaveModel {
  double digit_units_linear = 2.0;
  double digit_units_quadratic = 1.0;
  /// Target work per wave task; waves below this don't amortize their
  /// dispatch (~2500 units) and queue traffic.
  double units_per_wave = 16384.0;
  /// Hard cap on wave tasks per level, and its per-thread scaling: the
  /// graph allocates min(max_fanout, fanout_per_thread * threads) wave
  /// slots.  Defaults reproduce the pre-calibration global
  /// min(16, 2 * threads).
  std::uint32_t max_fanout = 16;
  std::uint32_t fanout_per_thread = 2;
};

/// Batch sizing for the per-prime PRS image tasks: images are fused into
/// one task until it clears min_task_units of modeled work (task dispatch
/// is ~2500 units; the default keeps dispatch under ~12% of a task).
struct ImageBatchModel {
  double min_task_units = 20000.0;
};

struct ModularTuning {
  NttCostModel ntt;
  CrtWaveModel crt;
  ImageBatchModel batch;
};

/// The current tuning: compiled defaults until set_modular_tuning.
ModularTuning modular_tuning();

/// Publishes a new tuning for all threads.  Values are sanitized into
/// safe ranges (a wild calibration profile can degrade speed, never
/// correctness or termination): butterfly_units to [0, 64], min_operand
/// to [4, 65536], the wave-model units to nonnegative finite values,
/// units_per_wave and min_task_units to >= 256, max_fanout to [1, 4096],
/// fanout_per_thread to [1, 64].
void set_modular_tuning(const ModularTuning& t);

/// Back to the compiled defaults (test hygiene).
void reset_modular_tuning();

/// Static wave-slot count per reconstruction level for `threads` workers:
/// min(max_fanout, fanout_per_thread * threads), at least 1.  This is the
/// number of wave tasks the graph builds; the per-level model decides how
/// many of them do work.
std::size_t crt_wave_fanout_cap(const CrtWaveModel& m, int threads);

/// Model wave count for one level of `cnt` coefficients at prime count
/// `k`, capped by `cap` (the allocated slots, already clamped to cnt by
/// the caller).  Returns at least 1; monotone nondecreasing in cnt and k.
std::size_t crt_level_waves(const CrtWaveModel& m, std::size_t cnt,
                            std::size_t k, std::size_t cap);

}  // namespace pr::modular
