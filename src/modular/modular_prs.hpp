// Multimodular fast path for the subresultant remainder sequence.
//
// Instead of running the Eq. 15-18 recurrences on ever-growing BigInt
// coefficients, compute the whole sequence modulo many word-sized primes
// (each image is an independent, allocation-light word-arithmetic pass --
// the embarrassingly parallel fan-out the TaskPool exploits) and
// reconstruct the coefficients of F_2..F_n by CRT.
//
// Reconstruction splits into a short serial CHAIN and independent LEVEL
// tasks.  By Eqs. 15-17, Q_i and c_i depend only on the two leading
// coefficients of F_{i-1} and F_i, so the chain step of level i reads
// nothing but those leading pairs.  It bounds the coefficients of
//
//   F_{i+1} = (Q_i F_i - c_i^2 F_{i-1}) / c_{i-1}^2        (Eqs. 15-18)
//
// by the chain bound
//
//   B_{i+1} = max(b(Q_i) + B_i + 1, 2 b(c_i) + B_{i-1}) + 3 - 2 b(c_{i-1})
//
// (b = bit length; b(Q_i) bounded from the leading pairs; B_0, B_1 the
// exact coefficient bits of F_0 and F_1; c_0^2 = 1), capped by the
// Hadamard bound of crt.hpp, images more primes inline if the bound climbs
// past the imaged prefix, and reconstructs only the leading pair of
// F_{i+1}.  The level task of level i then reconstructs the rest of
// F_{i+1} at the same prime count, forms the exact Q_i from the leading
// pairs, and checks F_{i+1} against a held-out prime.  Level tasks depend
// on the chain only, never on each other, and carry most of the Garner
// work (89% on Jacobi-96), so it runs off the critical path.  The bound
// costs 5-7% more Garner work on Jacobi-96 than one over the actual bits
// of F_{i-1} and F_i would, which needs those levels complete.  Every
// coefficient is reconstructed exactly once under a proven bound, so the
// result is bit-identical to compute_remainder_sequence() on every normal
// input.
//
// A prime p is *bad* when some image leading coefficient vanishes mod p
// while the true F_i does not -- the image recurrence then diverges from
// the reduction of the exact sequence.  Bad primes are detected exactly at
// that point (lc == 0) and replaced from the deterministic table; primes
// dividing lc(F_0) * lc(F_1) are already skipped at selection time.  A
// fully vanishing image remainder signals repeated roots (the extended
// sequence) -- we hand the input back to the exact path, which owns the
// extension logic, rather than guessing.  The same happens when
// replacements exceed a small cap (a non-normal input makes *every* prime
// look bad), when a level fails the held-out-prime check, and when the
// check cannot run because no held-out candidate images.
//
// The split API (image tasks, prepare_crt, the chain's size_level, the
// independent reconstruct_level, finalize) exists so the parallel driver
// can schedule each part as a task; the one-call wrapper runs the same
// calls inline on the caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "modular/crt.hpp"
#include "modular/modular_config.hpp"
#include "poly/remainder_sequence.hpp"

namespace pr::modular {

/// Per-prime PRS images are fused into one task until it clears this much
/// modeled work, in word-multiply units (one raw 64x64 multiply-accumulate
/// each).  Task dispatch is ~2500 units, so dispatch stays under ~12% of
/// a task.
inline constexpr double kImageBatchMinTaskUnits = 20000.0;

class MultimodularPrs {
 public:
  /// Chooses the prime slots and the held-out candidates deterministically
  /// from f0 (degree >= 1).
  MultimodularPrs(const Poly& f0, const ModularConfig& cfg);

  /// False when the input is too small for the fast path to pay off
  /// (degree below cfg.min_degree, or fewer than 3 primes needed); the
  /// caller should use the exact path.
  bool worthwhile() const { return worthwhile_; }

  /// The slots whose images should be computed eagerly (and in parallel).
  /// This is a ~60%-of-Hadamard prefix of the selected primes: measured
  /// sequences use roughly half the a-priori bound, so eagerly imaging the
  /// full Hadamard-sized slot set wastes almost half the image work.  The
  /// remaining slots stay selected and are imaged inline by the chain on
  /// the rare input whose bound climbs past the eager prefix.
  std::size_t num_slots() const { return eager_; }

  /// Computes slot's per-prime image of the whole sequence, replacing bad
  /// primes as needed.  Distinct slots may run concurrently; never throws
  /// (irregularities latch the fallback flag instead).
  void run_image(std::size_t slot);

  /// Images the held-out prime that reconstruct_level checks against
  /// (cfg.paranoid_check; a no-op otherwise), trying up to three
  /// candidates.  When none images, the check cannot run and the fallback
  /// latches.  May run concurrently with the slot images.
  void run_holdout();

  // --- image batching (cfg.batch_images) -----------------------------------
  // One task per prime is too fine below ~degree 40: a single image costs
  // ~6 n^2 word multiplies, which rivals task dispatch (~2500 units).
  // The driver asks for a batch
  // size, schedules num_image_tasks() tasks, and each one images a
  // contiguous run of slots.  Purely a scheduling regrouping: the same
  // run_image calls happen in the same per-slot order within a batch.

  /// Slots per image task for the given worker count: enough images to
  /// clear the dispatch-amortization floor, but never so many that fewer
  /// than ~2 tasks per worker remain.  1 when batching is disabled.
  std::size_t image_batch(int threads) const;
  /// ceil(num_slots / image_batch).
  std::size_t num_image_tasks(int threads) const;
  /// Images slots [t*B, min((t+1)*B, num_slots)), B = image_batch(threads).
  void run_image_batch(std::size_t task, int threads);

  // --- CRT reconstruction ---------------------------------------------------
  // After every eager image and the held-out image, the driver chains
  //
  //   prepare_crt()  ->  size_level(1)  ->  size_level(2)  ->  ...
  //
  // and releases reconstruct_level(i) as soon as size_level(i) ran.  The
  // chain owns every mutation of shared state (the current basis, inline
  // image escalation, the leading pairs); a level task reads only what the
  // chain wrote before releasing it -- including the basis it was sized
  // on, which a later escalation replaces but never frees -- and writes
  // only its own F_{i+1} and Q_i, so the graph edges are the only
  // synchronization needed.

  /// Builds the CRT basis over the imaged prefix and arms the chain.
  void prepare_crt();

  /// Number of reconstruction levels (level i builds F_{i+1}).
  std::size_t num_levels() const {
    return n_ > 1 ? static_cast<std::size_t>(n_ - 1) : 0;
  }

  /// Chain step of level i in [1, n-1]: the chain bound B_{i+1}, inline
  /// image escalation, and the leading pair of F_{i+1}; latches the
  /// fallback when c_{i+1} reconstructs to 0.  Must run after
  /// size_level(i-1) (prepare_crt for i == 1).
  void size_level(int i);
  /// Level task of level i: the rest of F_{i+1}, the exact Q_i and the
  /// held-out check.  Must run after size_level(i); level tasks may run
  /// concurrently with each other and with later chain steps.
  void reconstruct_level(int i);

  /// The chain bound B_t on the coefficient bits of F_t, t in [0, n]: the
  /// exact bits for t <= 1, and valid after size_level(t - 1) otherwise.
  std::size_t bound_bits(int t) const;

  /// Assembles the sequence from the levels.  nullopt == use the exact
  /// path.
  std::optional<RemainderSequence> finalize();

 private:
  struct Slot {
    std::uint64_t prime = 0;
    /// rows[i-2][j] = canonical residue of coeff j of F_i, i in [2, n].
    std::vector<std::vector<std::uint64_t>> rows;
    bool ok = false;
  };
  enum class ImageStatus { kOk, kBadPrime, kZeroRemainder };
  /// The two leading coefficients of F_t (next == 0 when deg F_t == 0):
  /// all that Q_t, c_t and the chain bound read of F_t.
  struct LeadingPair {
    BigInt lc;
    BigInt next;
  };
  /// What the chain hands level i's task: the basis it was sized on and
  /// the prime count that covers B_{i+1}.
  struct Level {
    std::shared_ptr<const CrtBasis> basis;
    std::size_t primes = 0;
  };

  std::uint64_t take_prime();
  ImageStatus compute_image(Slot& slot) const;
  void latch_fallback();
  /// A basis over the primes of slots [0, count).
  std::shared_ptr<const CrtBasis> basis_over(std::size_t count) const;
  /// Prime count covering `bits`, escalating the images (and the basis)
  /// inline when the imaged prefix falls short.  0 when the fallback
  /// latched mid-escalation.
  std::size_t primes_for(std::size_t bits);

  ModularConfig cfg_;
  Poly f0_, f1_;
  int n_ = 0;
  BigInt lc_product_;
  PrsBound bound_;
  bool worthwhile_ = false;
  int replacement_cap_ = 0;
  std::size_t eager_ = 0;        // prefix of slots_ imaged up front
  std::size_t images_done_ = 0;  // chain-only, set by prepare_crt

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> holdout_primes_;  // drawn after the slots
  Slot holdout_;
  std::mutex prime_mutex_;
  std::size_t next_forced_ = 0;  // guarded by prime_mutex_
  std::size_t next_table_ = 0;   // guarded by prime_mutex_
  std::atomic<bool> fallback_{false};
  std::atomic<int> replacements_{0};

  // Chain state: written by prepare_crt and size_level only.
  std::shared_ptr<const CrtBasis> basis_;  // the current basis
  std::vector<LeadingPair> leads_;         // [t], t in [0, n]
  std::vector<std::size_t> bits_;          // B_t, t in [0, n]
  std::vector<Level> levels_;              // [i], i in [1, n-1]

  // Level outputs: entry i + 1 of fs_ and entry i of qs_ are written by
  // reconstruct_level(i) alone.
  std::vector<Poly> fs_;  // F_0..F_n
  std::vector<Poly> qs_;  // Q_1..Q_{n-1} (index i)
};

/// One-call driver: the split API inline on the caller, in an order the
/// driver's graph allows, then finalize.  nullopt == caller should run
/// the exact compute_remainder_sequence (always correct: the fast path
/// never guesses).
std::optional<RemainderSequence> compute_remainder_sequence_multimodular(
    const Poly& f0, const ModularConfig& cfg);

}  // namespace pr::modular
