// 2x2 matrices of polynomials: the S_i / T_{i,j} algebra of Section 2.1.
//
// The paper's fractional matrices S_i (Eqs. 1-2) are represented by their
// integer multiples U_k = c_{k-1}^2 * S_k, so every T matrix stays integral
// and every division in the combination rule (Eq. 9) is exact:
//
//   T_{i,i} = U_i
//   T_{i,j} = T_{k+1,j} * U_k * T_{i,k-1} / (c_k^2 * c_{k-1}^2)
//
// with the Appendix-A convention c_0 = sign(lc(F_0)), so c_0^2 = 1.
// The tree polynomial at node [i,j] (j < n) is P_{i,j} = T_{i,j}(2,2).
//
// Because T_{a,a-1} = c_{a-1}^2 I and the divisors telescope, every split
// gives the same product form
//
//   T_{i,j} = U_j U_{j-1} ... U_i / (c_i^2 c_{i+1}^2 ... c_{j-1}^2),
//
// whose second column modular/tree_poly.hpp evaluates one factor at a
// time -- a three-term recurrence for P_{i,j} that needs no child T.
#pragma once

#include "linalg/intmatrix.hpp"
#include "poly/poly.hpp"
#include "poly/remainder_sequence.hpp"

namespace pr {

struct PolyMat22 {
  Poly e[2][2];

  Poly& at(int r, int c) { return e[r][c]; }
  const Poly& at(int r, int c) const { return e[r][c]; }

  friend PolyMat22 operator*(const PolyMat22& a, const PolyMat22& b);
  friend bool operator==(const PolyMat22& a, const PolyMat22& b);

  /// Divides every entry by s exactly.
  PolyMat22 divexact_scalar(const BigInt& s) const;

  /// Entry (r,c) of the product a*b -- the unit of work the paper's
  /// COMPUTEPOLY tasks schedule (each matrix product is split into four
  /// entry tasks, Section 3.2).
  static Poly mul_entry(const PolyMat22& a, const PolyMat22& b, int r, int c);
};

/// U_k = c_{k-1}^2 * S_k = [[0, c_{k-1}^2], [-c_k^2, Q_k]] (integer form of
/// Eqs. 1-2).  Valid for 1 <= k <= n-1.
PolyMat22 u_matrix(const RemainderSequence& rs, int k);

/// T for a leaf [k,k]: T_{k,k} = U_k.
PolyMat22 t_leaf(const RemainderSequence& rs, int k);

/// Eq. (9): combines the children's T matrices across split index k,
/// T_{i,j} = T_{k+1,j} * U_k * T_{i,k-1} / (c_k^2 * c_{k-1}^2).
PolyMat22 t_combine(const PolyMat22& t_right, const PolyMat22& t_left,
                    const RemainderSequence& rs, int k);

}  // namespace pr
