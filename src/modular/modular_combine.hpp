// Multimodular fast path for the tree-stage matrix combine (Eq. 9).
//
// t_combine computes T = T_right * (U_k * T_left) / (c_k^2 c_{k-1}^2).
// Unlike the remainder recurrence, this is a straight polynomial identity:
// the only division is by s = c_k^2 c_{k-1}^2, which is known *before* any
// prime is chosen.  Skipping primes that divide s at selection time
// therefore eliminates bad primes entirely -- every image is the exact
// reduction of the result (the image multiplies by inv(s) mod p), and no
// runtime replacement machinery is needed.
//
// The coefficient bound is structural: chain product_coeff_bits through
// T_right * (U_k * T_left), then subtract bits(s) - 1 because the division
// is exact.  CRT with symmetric lift under that bound reproduces
// t_combine() bit for bit.
//
// The split-phase API (run_images / reconstruct) lets the parallel driver
// schedule strided image blocks and one reconstruction as separate tasks;
// modular_t_combine() is the one-call form compute_node_poly uses.  The
// CRT basis -- O(k^2) words for k primes -- exists only inside
// reconstruct(), which also frees the image rows before it returns, so a
// combine holds its largest buffers for the span of one task.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/polymat22.hpp"
#include "modular/crt.hpp"
#include "modular/modular_config.hpp"
#include "modular/ntt.hpp"

namespace pr::modular {

class ModularCombine {
 public:
  /// Computes the result bound and, when worthwhile, selects the prime
  /// basis (deterministically; forced primes first, each screened against
  /// s).  Keeps references to the inputs: they must outlive the combine.
  ModularCombine(const PolyMat22& t_right, const PolyMat22& t_left,
                 const RemainderSequence& rs, int k, const ModularConfig& cfg);

  /// False when the bound is below cfg.min_combine_bits, the word-multiply
  /// cost model favors the exact combine (cfg.combine_cost_gate), or fewer
  /// than 3 primes are needed; the caller should use exact t_combine().
  /// Cheap to compute: no primes are selected for non-worthwhile combines.
  bool worthwhile() const { return worthwhile_; }

  /// Bit bound on the result coefficients (valid even when not worthwhile).
  std::size_t result_bits() const { return bits_t_; }

  std::size_t num_primes() const { return primes_.size(); }

  /// Computes the images for slots first, first+stride, first+2*stride, ...
  /// Distinct residue classes may run concurrently.
  void run_images(std::size_t first, std::size_t stride);

  /// After *all* images: builds the CRT basis, reconstructs the four
  /// entries, and releases the basis and the image rows.
  void reconstruct();

  /// The combined matrix, bit-identical to t_combine().  Call once, after
  /// reconstruct().
  PolyMat22 take_result();

 private:
  void run_image(std::size_t slot);
  /// Fused frequency-domain image: one transform size N covers the whole
  /// chain T = R * (U * L) / s, so the twelve inputs are transformed once,
  /// both 2x2 products happen pointwise, and only the four result entries
  /// come back -- 16 transforms where the elementwise path needs ~48.
  void run_image_ntt(std::size_t slot);
  void reconstruct_entry(const CrtBasis& basis, int r, int c);

  const PolyMat22& tr_;
  const PolyMat22& tl_;
  ModularConfig cfg_;
  PolyMat22 u_;       // exact U_k
  BigInt s_;          // c_k^2 * c_{k-1}^2
  std::size_t bits_t_ = 0;
  bool worthwhile_ = false;
  std::size_t len_[2][2] = {};  // structural coefficient-count bound per entry
  /// Fused-NTT image decision, made once in the ctor from structural
  /// lengths only (deterministic across thread counts).  ntt_size_ is the
  /// shared transform length (>= every entry's output length, so the
  /// cyclic convolution is the linear one).
  bool use_ntt_combine_ = false;
  std::size_t ntt_size_ = 0;

  std::vector<std::uint64_t> primes_;
  std::vector<PrimeField> fields_;  // one per prime, from the selection screen
  /// s mod p per selected prime, Montgomery form -- a byproduct of the
  /// selection screen, so the image transforms never re-reduce the
  /// multi-thousand-bit s.
  std::vector<Zp> s_imgs_;
  /// rows_[slot][2*r+c][j]: canonical residue of coeff j of entry (r,c).
  std::vector<std::vector<std::vector<std::uint64_t>>> rows_;
  PolyMat22 result_;
};

/// One-call driver: images (on cfg.num_threads pool workers when > 1),
/// then reconstruction.  nullopt == not worthwhile; caller should run the
/// exact t_combine.
std::optional<PolyMat22> modular_t_combine(const PolyMat22& t_right,
                                           const PolyMat22& t_left,
                                           const RemainderSequence& rs, int k,
                                           const ModularConfig& cfg);

}  // namespace pr::modular
