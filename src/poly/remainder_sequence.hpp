// The standard (subresultant) remainder sequence and quotient sequence of
// Section 2.1, computed with the coefficient recurrences of Section 3.1
// (Eqs. 15-18).
//
// For a degree-n polynomial F_0 with n distinct real roots the sequence is
// *normal*: every quotient Q_i is linear, deg F_i = n - i, and F_n is a
// non-zero constant.  If F_0 has repeated roots the sequence terminates
// early with F_{n*+1} = 0 (n* = number of distinct roots) and F_{n*} ~
// gcd(F_0, F_0'); Section 2.3 then extends the sequence with F_i = Q_i = 1.
//
// All F_i and Q_i have integer coefficients (Collins 1967); every division
// in the recurrence is exact and is enforced as such.
#pragma once

#include <vector>

#include "poly/poly.hpp"

namespace pr {

struct RemainderSequence {
  /// F[0..n]; in the normal case deg F[i] == n-i and F[n] is a nonzero
  /// constant.  In the extended (repeated-root) case F[i] == 1 for
  /// nstar <= i < n and F[n] == 0 (Eqs. 10-11).  A *partial* sequence
  /// (the multimodular engine's, given a level set) is normal and leaves
  /// F[t] empty off that set; Q and c are complete in both shapes, so
  /// read a whole level through level(t), which refuses an absent one.
  std::vector<Poly> F;
  /// Q[1..n-1] (Q[0] unused).  Linear in the normal case; Q[i] == 1 for
  /// nstar <= i < n in the extended case (Eq. 12).
  std::vector<Poly> Q;
  /// Leading coefficients c[i] of F[i]; by the paper's Appendix-A
  /// convention c[0] is the *sign* of lc(F_0), so c_0^2 == 1 and the
  /// recurrence F_{i+1} = (Q_i F_i - c_i^2 F_{i-1}) / c_{i-1}^2 is uniform.
  std::vector<BigInt> c;
  int n = 0;      ///< degree of F_0
  int nstar = 0;  ///< number of distinct roots (== n iff not extended)

  bool extended() const { return nstar < n; }
  /// Whether F[t] is held, t in [0, n]: every level of a full sequence
  /// (F[n] == 0 of an extended one included), only the level set of a
  /// partial one.
  bool has_level(int t) const;
  /// F[t]; throws InvalidArgument when a partial sequence does not hold it.
  const Poly& level(int t) const;
  /// gcd(F_0, F_0') (primitive); degree 0 when the roots are distinct.
  Poly gcd_part;
};

/// Computes Q_i = q1*x + q0 from F_{i-1}, F_i by Eqs. (15)-(17).
/// Precondition: deg F_{i-1} == deg F_i + 1.
void quotient_coeffs(const Poly& f_prev, const Poly& f_cur, BigInt& q1,
                     BigInt& q0);

/// One coefficient of F_{i+1} by Eq. (18):
///   f_{i+1,j} = (f_{i,j}*q0 + f_{i,j-1}*q1 - c_i^2 * f_{i-1,j}) / c_{i-1}^2
/// This is the unit of work the paper's parallel phase 1 schedules
/// (Section 3.1: "each of these 5(n-i) operations forms a distinct task").
BigInt next_f_coeff(const Poly& f_prev, const Poly& f_cur, const BigInt& q1,
                    const BigInt& q0, const BigInt& ci_sq,
                    const BigInt& cprev_sq, std::size_t j);

/// Computes the full (possibly extended) remainder sequence sequentially.
/// Throws NonNormalSequence if some quotient would not be linear while the
/// remainder is non-zero (degree gap >= 2) -- the tree algorithm does not
/// apply to such inputs and the caller is expected to fall back.
RemainderSequence compute_remainder_sequence(const Poly& f0);

/// Number of distinct real roots of F_0, read off a *non-extended*
/// sequence for free: {F_i} is a Sturm chain (each F_{i+1} is the negated
/// true remainder up to a positive constant), so the variation difference
/// at -inf/+inf counts real roots.  A non-extended sequence is normal, so
/// the signs come from c_t and the degrees n - t alone, and a partial
/// sequence counts like the full one.  Lets the driver reject inputs with
/// complex roots before running the tree stage (whose correctness assumes
/// all roots real).
int real_root_count(const RemainderSequence& rs);

}  // namespace pr
