// Phase-scoped operation counters.
//
// The paper (Section 5.1, Figures 2-7) validates its analysis by tracing the
// number of multi-precision multiplications performed in each phase of the
// algorithm and their bit complexity.  This module provides the equivalent
// instrumentation: every BigInt multiplication, division, and addition
// reports its operand sizes here, attributed to the *phase* currently active
// on the calling thread (set via PhaseScope, see phase.hpp).
//
// Counters are thread-local for contention-free updates; a global registry
// allows aggregation across all threads that ever touched the library.
// The per-thread running bit-cost total is also the deterministic "work"
// measure used to cost tasks for the discrete-event multiprocessor
// simulator (src/sim/).
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>

namespace pr::instr {

/// Phases of the algorithm, mirroring the paper's phase breakdown.
enum class Phase : std::uint8_t {
  kOther = 0,      ///< untracked work (input generation, harness glue)
  kCharPoly,       ///< workload generation: Berkowitz characteristic polys
  kRemainder,      ///< computing the remainder/quotient sequence (Sec 3.1/4.1)
  kTreePoly,       ///< computing the tree polynomials T_{i,j} (Sec 3.2/4.2)
  kSort,           ///< merging sorted child roots (Sec 3.2)
  kPreInterval,    ///< evaluating P_{i,j} at interleaving points (Sec 3.2)
  kSieve,          ///< double-exponential sieve sub-phase (Sec 2.2)
  kBisect,         ///< bisection sub-phase (Sec 2.2; Figures 6-7)
  kNewton,         ///< Newton sub-phase (Sec 2.2)
  kBaseline,       ///< the comparison (Sturm) root finder (Figure 8)
  kCount_          ///< number of phases (sentinel)
};

constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount_);

/// Human-readable phase name ("remainder", "bisect", ...).
const char* phase_name(Phase p);

/// Operation counts and bit costs for one phase.
///
/// Bit-cost conventions (matching the quadratic-arithmetic model of the
/// paper's UNIX `mp` package, Sec 3.3/4):
///   multiplication of a and b:  bits(a) * bits(b)
///   division a / b:             (bits(a) - bits(b) + 1) * bits(b)
///   addition/subtraction:       max(bits(a), bits(b))
struct OpCounts {
  std::uint64_t mul_count = 0;
  std::uint64_t div_count = 0;
  std::uint64_t add_count = 0;
  std::uint64_t mul_bits = 0;
  std::uint64_t div_bits = 0;
  std::uint64_t add_bits = 0;
  /// Limb-buffer heap (re)allocations performed by BigInt storage, and the
  /// total limbs allocated.  This measures implementation overhead the
  /// paper's cost model does not charge for, so it is deliberately NOT part
  /// of bit_cost() -- it exists to make allocation churn visible per phase
  /// (see bench_micro).
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_limbs = 0;

  /// Total bit cost across operation kinds; the simulator's work unit.
  /// Allocation counters are excluded: they are a memory-system diagnostic,
  /// not part of the paper's arithmetic cost model.
  std::uint64_t bit_cost() const { return mul_bits + div_bits + add_bits; }

  OpCounts& operator+=(const OpCounts& o);
  OpCounts operator-(const OpCounts& o) const;
};

/// Counters for all phases.
struct PhaseCounts {
  std::array<OpCounts, kNumPhases> by_phase{};

  const OpCounts& operator[](Phase p) const {
    return by_phase[static_cast<std::size_t>(p)];
  }
  OpCounts& operator[](Phase p) {
    return by_phase[static_cast<std::size_t>(p)];
  }

  OpCounts total() const;
  PhaseCounts& operator+=(const PhaseCounts& o);
  PhaseCounts operator-(const PhaseCounts& o) const;
};

/// Records one multiplication with operand bit lengths a and b.
void on_mul(std::size_t abits, std::size_t bbits);
/// Records one division of an a-bit number by a b-bit number.
void on_div(std::size_t abits, std::size_t bbits);
/// Records one addition/subtraction with operand bit lengths a and b.
void on_add(std::size_t abits, std::size_t bbits);
/// Records one limb-buffer heap allocation of `limbs` limbs (called by
/// BigInt's storage layer; does not contribute to bit_cost()).
void on_limb_alloc(std::size_t limbs);

/// This thread's counters (live view).
const PhaseCounts& thread_counts();

/// This thread's running total bit cost, O(1).  Deltas of this value around
/// a task body give the task's deterministic cost for the DES.
std::uint64_t thread_bit_cost();

/// Sum of counters over every thread that has ever recorded an operation.
/// Safe to call concurrently with recording (values are monotone; the
/// snapshot is approximate only if other threads are actively recording).
PhaseCounts aggregate();

/// Resets the counters of all registered threads to zero.  Call only when
/// no other thread is recording (e.g. between bench configurations).
/// Also clears the modular counters below.
void reset_all();

// --- multimodular-subsystem counters ---------------------------------------
// Word-sized field operations are deliberately NOT reported to OpCounts
// (they are not multi-precision operations; counting them would distort the
// paper's counter validation).  The modular layer instead records its own
// volume measures here: how many primes each reconstruction used, how many
// per-prime images ran, how often a sampled prime was bad (a PRS leading
// coefficient vanished mod p and the prime was replaced, or the prime
// divides a c_t the tree recurrence inverts and was skipped), the CRT
// output volume, and how often the fast path abandoned an input to the
// exact path.
// Process-global atomics: cheap enough for per-value updates, and the
// multimodular work is spread across pool threads anyway.

struct ModularCounts {
  std::uint64_t primes_used = 0;   ///< primes per PRS basis + per tree node
  std::uint64_t images = 0;        ///< per-prime PRS/tree-node images computed
  std::uint64_t bad_primes = 0;    ///< PRS primes replaced after lc
                                   ///< vanished; tree primes skipped
  std::uint64_t crt_values = 0;    ///< coefficients reconstructed by CRT
  std::uint64_t crt_limbs = 0;     ///< total limbs of reconstructed values
  std::uint64_t combines = 0;      ///< multimodular tree-node polynomials
  std::uint64_t fallbacks = 0;     ///< fast-path runs abandoned to exact
  std::uint64_t ntt_transforms = 0;  ///< forward/inverse NTT passes run
  std::uint64_t ntt_points = 0;      ///< total transform points (sum of n)
};

void on_modular_primes(std::uint64_t count);
void on_modular_image(std::uint64_t count = 1);
void on_modular_bad_prime();
void on_modular_crt(std::uint64_t values, std::uint64_t limbs);
void on_modular_combine();
void on_modular_fallback();
/// One NTT pass (forward or inverse) of `points` elements; `transforms` is
/// normally 1 but lets a fused caller report a batch in one update.
void on_modular_ntt(std::uint64_t transforms, std::uint64_t points);

/// Snapshot of the modular counters.
ModularCounts modular_counts();
/// Clears only the modular counters (reset_all() clears them too).
void reset_modular();

/// Renders a per-phase summary table (counts + bit costs).
std::string format(const PhaseCounts& c);

}  // namespace pr::instr
