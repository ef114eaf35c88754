// Runtime-dispatched SIMD kernels for the mod-p arithmetic layer.
//
// The two inner loops of CRT reconstruction and residue reduction -- the
// Garner mixed-radix digit stage and the Acc192 dot products behind
// LimbReducer -- funnel through the Kernels function table defined here.
// Three implementations exist:
//
//   * scalar  -- portable C++, always compiled, bit-for-bit the reference
//                semantics (identical formulas to PrimeField/Acc192);
//   * avx2    -- 4 x 64-bit lanes; 64x64->128 products are assembled from
//                vpmuludq 32-bit partials;
//   * avx512  -- 8 x 64-bit lanes (F/DQ/VL/BW), with mask-register
//                conditional subtracts and vpmullq low products.
//
// Dispatch is compile-time (TUs exist only when the toolchain supports
// the ISA and POLYROOTS_DISABLE_SIMD is off) AND runtime (cpuid via
// __builtin_cpu_supports at first use).  The active table is an atomic
// pointer; force_isa() is the test seam the differential suite uses to
// compare every compiled implementation against scalar on the same host.
// The environment variable POLYROOTS_SIMD={scalar,avx2,avx512} caps the
// startup selection (useful for A/B timing without rebuilding).
//
// Determinism contract: every kernel computes EXACTLY the same canonical
// values as the scalar reference -- Montgomery reduction with the final
// conditional subtract is a pure function of its inputs, and the lane
// decomposition never reassociates a per-value operation.  The only
// representation freedom is inside acc192_dot, which may accumulate
// per-lane 192-bit partials and combine them at the end: the combined
// 192-bit VALUE equals the sequential sum (exact integer addition), so
// every fold downstream is bit-identical.  Switching ISA can therefore
// never change a residue, a reconstruction, or a RootReport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "modular/zp.hpp"

namespace pr::modular::simd {

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase name ("scalar", "avx2", "avx512") for stats and bench
/// output.
const char* isa_name(Isa isa);

/// One resolved kernel table.  All pointers are non-null; `f` is the
/// Montgomery context of the prime every residue belongs to.
struct Kernels {
  Isa isa = Isa::kScalar;

  /// Garner digit stage j over `count` independent reconstructions laid
  /// out column-per-value: digits[i * stride + c] is digit i of value c
  /// (rows 0..j-1 already computed).  For every c < count:
  ///   s = fold192_shr64(sum_{i<j} digits[i*stride+c] * w[i].v)
  ///   t = residues_j[c] + p - s  (one conditional subtract)
  ///   out[c] = montmul(t, inv.v)
  /// exactly the per-value loop of CrtBasis::garner_digits.  `out` is
  /// typically row j of the digit matrix.
  void (*garner_stage)(const std::uint64_t* digits, std::size_t stride,
                       std::size_t j, const Zp* w, Zp inv,
                       const std::uint64_t* residues_j, std::uint64_t* out,
                       std::size_t count, const MontCtx& f);

  /// acc += sum_{i<n} a[i] * b[i].v as an exact 192-bit value (the lazy
  /// Montgomery dot of LimbReducer / the single-value Garner stage).  The
  /// resulting (lo, hi, carry) triple may differ in representation from
  /// the sequential Acc192 only when the sequential form would differ
  /// from itself under reassociation -- it cannot: both denote the same
  /// integer and Acc192 is a canonical little-endian split, so the stored
  /// triple is identical too.
  void (*acc192_dot)(const std::uint64_t* a, const Zp* b, std::size_t n,
                     Acc192& acc);
};

/// The portable reference table (always available).
const Kernels& scalar_kernels();

/// Table for a specific ISA, or nullptr when it is not compiled in or the
/// CPU lacks it.  kScalar always resolves.
const Kernels* kernels_for(Isa isa);

/// The active table: the best ISA the build + CPU + POLYROOTS_SIMD cap +
/// force_isa() allow.  Cheap (one relaxed atomic load).
const Kernels& active();
Isa active_isa();

/// Everything kernels_for() resolves on this host, scalar first.
std::vector<Isa> available_isas();

/// Test seam: pin the active table to `isa`.  Returns false (and leaves
/// the selection unchanged) when the ISA is unavailable.  Thread-safe,
/// but flipping it mid-transform is on the caller.
bool force_isa(Isa isa);
/// Undo force_isa(): back to the startup selection.
void reset_forced_isa();

}  // namespace pr::modular::simd
