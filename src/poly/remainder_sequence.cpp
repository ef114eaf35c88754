#include "poly/remainder_sequence.hpp"

#include "instr/phase.hpp"
#include "support/error.hpp"

namespace pr {

bool RemainderSequence::has_level(int t) const {
  check_arg(t >= 0 && t <= n && F.size() == static_cast<std::size_t>(n) + 1,
            "RemainderSequence: level t in [0, n]");
  return !F[static_cast<std::size_t>(t)].is_zero() || (extended() && t == n);
}

const Poly& RemainderSequence::level(int t) const {
  check_arg(has_level(t),
            "RemainderSequence: a partial sequence does not hold this level");
  return F[static_cast<std::size_t>(t)];
}

void quotient_coeffs(const Poly& f_prev, const Poly& f_cur, BigInt& q1,
                     BigInt& q0) {
  check_arg(f_prev.degree() == f_cur.degree() + 1,
            "quotient_coeffs: degree gap must be 1");
  const auto d = static_cast<std::size_t>(f_cur.degree());
  // Eq. (15)-(17): with F_{i-1} of degree d+1 and F_i of degree d,
  //   q1 = c_{i-1} * c_i
  //   q0 = f_{i,d} * f_{i-1,d} - f_{i,d-1} * f_{i-1,d+1}
  q1 = f_prev.coeff(d + 1) * f_cur.coeff(d);
  q0 = f_cur.coeff(d) * f_prev.coeff(d) -
       (d > 0 ? f_cur.coeff(d - 1) * f_prev.coeff(d + 1) : BigInt());
}

BigInt next_f_coeff(const Poly& f_prev, const Poly& f_cur, const BigInt& q1,
                    const BigInt& q0, const BigInt& ci_sq,
                    const BigInt& cprev_sq, std::size_t j) {
  // Eq. (18).  f_{i,j-1} is zero for j == 0.  The three products are
  // accumulated in place (addmul/submul) so the recurrence allocates no
  // intermediate BigInts.
  BigInt num = f_cur.coeff(j) * q0;
  if (j > 0) num.addmul(f_cur.coeff(j - 1), q1);
  num.submul(ci_sq, f_prev.coeff(j));
  return BigInt::divexact(num, cprev_sq);
}

RemainderSequence compute_remainder_sequence(const Poly& f0) {
  check_arg(f0.degree() >= 1, "compute_remainder_sequence: degree >= 1");
  instr::PhaseScope phase(instr::Phase::kRemainder);

  const int n = f0.degree();
  RemainderSequence rs;
  rs.n = n;
  rs.nstar = n;
  rs.gcd_part = Poly{1};
  rs.F.assign(static_cast<std::size_t>(n) + 1, Poly{});
  rs.Q.assign(static_cast<std::size_t>(n), Poly{});
  rs.c.assign(static_cast<std::size_t>(n) + 1, BigInt(1));

  rs.F[0] = f0;
  rs.F[1] = f0.derivative();
  // Appendix-A convention: c_0 is the sign of lc(F_0) so c_0^2 == 1.
  rs.c[0] = BigInt(f0.leading().signum());
  rs.c[1] = rs.F[1].leading();

  for (int i = 1; i <= n - 1; ++i) {
    const Poly& fprev = rs.F[static_cast<std::size_t>(i - 1)];
    const Poly& fcur = rs.F[static_cast<std::size_t>(i)];
    check_internal(fcur.degree() == n - i, "remainder sequence: bad degree");

    BigInt q1, q0;
    quotient_coeffs(fprev, fcur, q1, q0);
    rs.Q[static_cast<std::size_t>(i)] =
        Poly(std::vector<BigInt>{q0, q1});

    const BigInt ci_sq = rs.c[static_cast<std::size_t>(i)] *
                         rs.c[static_cast<std::size_t>(i)];
    const BigInt cprev_sq = rs.c[static_cast<std::size_t>(i - 1)] *
                            rs.c[static_cast<std::size_t>(i - 1)];
    const auto ncoeff = static_cast<std::size_t>(n - i - 1) + 1;
    std::vector<BigInt> next(ncoeff);
    for (std::size_t j = 0; j < ncoeff; ++j) {
      next[j] = next_f_coeff(fprev, fcur, q1, q0, ci_sq, cprev_sq, j);
    }
    Poly fnext{std::move(next)};

    if (fnext.is_zero()) {
      // Repeated roots: F_{i+1} == 0 means n* == i distinct roots and
      // F_i ~ gcd(F_0, F_0') (Section 2.3, incl. footnote 2).
      rs.nstar = i;
      rs.gcd_part = fcur.primitive_part();
      // Extend per Eqs. (10)-(12): F_k = 1, Q_k = 1 for n* <= k < n,
      // F_n = 0.
      for (int k = i; k < n; ++k) {
        rs.F[static_cast<std::size_t>(k)] = Poly{1};
        rs.Q[static_cast<std::size_t>(k)] = Poly{1};
        rs.c[static_cast<std::size_t>(k)] = BigInt(1);
      }
      rs.F[static_cast<std::size_t>(n)] = Poly{};
      rs.c[static_cast<std::size_t>(n)] = BigInt(1);
      return rs;
    }

    if (fnext.degree() != n - i - 1) {
      throw NonNormalSequence(
          "remainder sequence is not normal (premature degree drop at F_" +
          std::to_string(i + 1) + ": degree " +
          std::to_string(fnext.degree()) + ", expected " +
          std::to_string(n - i - 1) + ")");
    }
    rs.c[static_cast<std::size_t>(i + 1)] = fnext.leading();
    rs.F[static_cast<std::size_t>(i + 1)] = std::move(fnext);
  }
  return rs;
}

int real_root_count(const RemainderSequence& rs) {
  check_arg(!rs.extended(),
            "real_root_count: requires a non-extended sequence");
  // Normal: lc F_t has the sign of c_t (c_0 is that sign) and
  // deg F_t == n - t.
  const auto variations = [&](bool at_neg_inf) {
    int count = 0;
    int prev = 0;
    for (int t = 0; t <= rs.n; ++t) {
      int s = rs.c[static_cast<std::size_t>(t)].signum();
      if (at_neg_inf && (rs.n - t) % 2 != 0) s = -s;
      if (prev != 0 && s != prev) ++count;
      prev = s;
    }
    return count;
  };
  return variations(true) - variations(false);
}

}  // namespace pr
