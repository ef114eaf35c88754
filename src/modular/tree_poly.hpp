// Multimodular tree polynomials by the three-term recurrence.
//
// Eq. 9 unrolls, for every split, to
//
//   T_{i,j} = U_j U_{j-1} ... U_i / (c_i^2 c_{i+1}^2 ... c_{j-1}^2),
//
// because T_{a,a-1} = c_{a-1}^2 I and the divisors of the nested combines
// telescope.  Applying that product to the column (0, c_{i-1}^2)^T one
// factor at a time yields the pair (P_{i,t-1}, P_{i,t}), i.e.
//
//   P_{i,t} = (Q_t P_{i,t-1} - c_t^2 P_{i,t-2}) / c_{t-1}^2,   t = i..j,
//   P_{i,i-1} = c_{i-1}^2,   P_{i,i-2} = 0,
//
// and P_{i,j} = T_{i,j}(2,2) is the node's polynomial.  Every intermediate
// P_{i,t} is itself a tree polynomial, hence integral, so every division
// is exact; modulo a prime p not dividing c_{i-1} .. c_{j-1} it is a
// multiplication by the inverse of c_{t-1}^2.  A node therefore reads only
// the residues of c_t and Q_t -- never a whole level F_t, nor its
// children's T matrices -- so a partial remainder sequence (see
// RemainderSequence::F) serves it as well as a full one, and only P_{i,j}
// is reconstructed by CRT.
//
// The coefficient bound is chained through the same recurrence with exact
// bit lengths (b = bit length, B_t bounds the coefficient bits of P_{i,t}):
//
//   B_{i-2} = -inf,  B_{i-1} = 2 b(c_{i-1}),
//   B_t = max(b(Q_t) + B_{t-1} + 1, 2 b(c_t) + B_{t-2}) + 3 - 2 b(c_{t-1}).
//
// Each coefficient of Q_t P sums at most two terms (+1), the difference
// adds one bit (+1), and c_{t-1}^2 >= 2^{2b-2} removes 2b - 2 bits.  A node
// takes primes_for_bits(B_j) primes of the shared basis.
//
// One ModularTreePolys serves any set of nodes: the residues of c_t^2, of
// their inverses and of Q_t are computed once per prime, and one CRT basis
// serves every node.  The prime list is the deterministic candidate stream
// (forced primes first, then the modulus table) with every prime dividing
// some c_t the recurrence inverts skipped, so it depends only on the exact
// sequence and the node set, never on thread count or task order.  The
// split-phase API lets the parallel driver run each stage as tasks;
// modular_tree_poly() is the one-node form compute_node_poly uses.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "modular/crt.hpp"
#include "modular/modular_config.hpp"
#include "modular/zp.hpp"
#include "poly/remainder_sequence.hpp"

namespace pr::modular {

class ModularTreePolys {
 public:
  /// Node ranges [i, j] with 1 <= i < j < rs.n (internal non-spine tree
  /// nodes).  Validates cfg.forced_primes.  Keeps a reference to rs, which
  /// must outlive this object and hold every c_t and Q_t before set_up();
  /// its F is never read.
  ModularTreePolys(const RemainderSequence& rs,
                   std::vector<std::pair<int, int>> nodes,
                   const ModularConfig& cfg);

  /// Bit bound of every node and the candidate primes that cover the
  /// largest one.  Call once, before everything below.
  void set_up();

  /// Residue tables of candidates first, first + stride, ...  Distinct
  /// residue classes may run concurrently.
  void compute_residues(std::size_t first, std::size_t stride);

  /// After every residue task: skips candidates that divide an inverted
  /// c_t, draws replacements inline until the bits suffice, and builds the
  /// CRT basis.
  void publish();

  /// P_{i,j} of node `node` (an index into the constructor's list), bit-
  /// identical to t_combine's T_{i,j}(2,2).  After publish(); distinct or
  /// equal nodes may run concurrently.
  Poly node_poly(std::size_t node) const;

  /// Bound on the coefficient bits of node `node` (after set_up()).
  std::size_t bound_bits(std::size_t node) const { return bits_[node]; }

  /// The primes of the basis, in order (after publish()).
  const std::vector<std::uint64_t>& primes() const { return primes_; }

 private:
  /// Per-step constants of the recurrence modulo one prime, Montgomery
  /// form, for t in [lo_, hi_]: P_t = a1 x P_{t-1} + a0 P_{t-1} - g P_{t-2}
  /// with (a1, a0, g) = (q1, q0, c_t^2) / c_{t-1}^2, and csq_prev = c_{t-1}^2
  /// (the start value of a node with i == t).  Zero for a step no node
  /// takes.
  struct Step {
    Zp a1, a0, g, csq_prev;
  };
  struct Slot {
    std::uint64_t prime = 0;
    bool good = false;        ///< no inverted c_t vanishes mod prime
    std::vector<Step> steps;  ///< empty unless good
  };

  std::uint64_t next_candidate();
  void fill(Slot& slot) const;

  const RemainderSequence& rs_;
  std::vector<std::pair<int, int>> nodes_;
  ModularConfig cfg_;
  int lo_ = 0, hi_ = 0;  // min i and max j over the nodes
  // step_used_[t - lo_]: some node has i <= t <= j, so step t inverts
  // c_{t-1}^2 and a prime dividing c_{t-1} is bad.
  std::vector<bool> step_used_;
  std::vector<std::size_t> bits_;
  std::size_t target_bits_ = 0;  // max bound + 2 (primes_for_bits' rule)

  std::size_t next_forced_ = 0;
  std::size_t next_table_ = 0;
  std::vector<Slot> slots_;

  // Set by publish(): the good slots in candidate order and their basis.
  std::vector<std::size_t> used_;
  std::vector<std::uint64_t> primes_;
  std::unique_ptr<CrtBasis> basis_;
};

/// One node's polynomial P_{i,j} (1 <= i < j < rs.n) with a one-node table
/// and basis: the same code the task graph runs for every node.
Poly modular_tree_poly(const RemainderSequence& rs, int i, int j,
                       const ModularConfig& cfg);

}  // namespace pr::modular
