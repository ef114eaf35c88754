// Sturm chains and exact real-root counting.
//
// Used by (a) the baseline sequential root finder (the paper's Figure-8
// comparator), (b) RootFinderConfig::validate and the multiplicities of
// shared cells, and (c) test oracles that validate every root cell the
// tree algorithm returns.
//
// Evaluation points are dyadic rationals a / 2^w.  Queries are exact even
// when an endpoint coincides with a root: one-sided sign limits are
// computed symbolically (sign of the first non-vanishing derivative).
#pragma once

#include <cstddef>
#include <vector>

#include "poly/poly.hpp"

namespace pr {

class SturmChain {
 public:
  /// Builds the Sturm chain of p: S_0 = p, S_1 = p', S_{i+1} =
  /// -rem(S_{i-1}, S_i) up to positive constants (computed with primitive
  /// pseudo-remainders to control coefficient growth).
  explicit SturmChain(const Poly& p);

  const std::vector<Poly>& chain() const { return seq_; }
  const Poly& polynomial() const { return seq_.front(); }

  /// Number of distinct real roots of p.
  int distinct_real_roots() const;

  /// Number of distinct real roots in the half-open interval
  /// (lo/2^w, hi/2^w].  Exact for any endpoints.
  int count_half_open(const BigInt& lo, const BigInt& hi,
                      std::size_t w) const;

  /// Number of distinct real roots strictly below a/2^w.
  int count_below(const BigInt& a, std::size_t w) const;

  /// Sign variations in the chain at x -> (a/2^w)^+ (right limit).
  int variations_right(const BigInt& a, std::size_t w) const;
  /// Sign variations in the chain at x -> (a/2^w)^- (left limit).
  int variations_left(const BigInt& a, std::size_t w) const;
  /// Sign variations at -infinity / +infinity.
  int variations_at_neg_inf() const;
  int variations_at_pos_inf() const;

 private:
  std::vector<Poly> seq_;
};

/// Sign of p at (a/2^w)^+ : the sign of the first non-vanishing derivative
/// value p^(k)(a/2^w).  Zero only for the zero polynomial.
int sign_right_limit(const Poly& p, const BigInt& a, std::size_t w);
/// Sign of p at (a/2^w)^- (first non-vanishing derivative, alternating).
int sign_left_limit(const Poly& p, const BigInt& a, std::size_t w);

}  // namespace pr
