#include "core/interval_stage.hpp"

#include "instr/phase.hpp"
#include "poly/certified_sign.hpp"
#include "poly/sturm.hpp"
#include "support/error.hpp"

namespace pr {

InterleavePointInfo analyze_interleave_point(const Poly& p, const BigInt& k,
                                             std::size_t mu,
                                             bool certified_probes) {
  instr::PhaseScope phase(instr::Phase::kPreInterval);
  InterleavePointInfo info;
  if (certified_probes) {
    // A nonzero sign at k is also the right limit there.  At a root of p
    // the right limit is the derivative's, as sign_right_limit finds it,
    // without a second exact value of p at k.
    const int at_k = filtered_sign_scaled(p, k, mu);
    info.sign_right_at =
        at_k != 0 ? at_k : sign_right_limit(p.derivative(), k, mu);
  } else {
    info.sign_right_at = sign_right_limit(p, k, mu);
  }
  const BigInt km = k - BigInt(1);
  info.sign_at_minus = certified_probes ? filtered_sign_scaled(p, km, mu)
                                        : p.sign_at_scaled(km, mu);
  info.sign_right_at_minus = info.sign_at_minus != 0
                                 ? info.sign_at_minus
                                 : sign_right_limit(p, km, mu);
  return info;
}

bool count_leq_is_even(const Poly& p, int sign_right_at_t) {
  // For a polynomial with all real roots (counted without multiplicity
  // here; p is squarefree on this path), sign(p(t)) for non-root t equals
  // sign(p(-inf)) * (-1)^{#roots <= t}.  The right limit makes any root at
  // t itself count as "passed".
  const int lead = p.leading().signum();
  const int sign_at_minus_inf = (p.degree() % 2 == 0) ? lead : -lead;
  check_internal(sign_right_at_t != 0 && sign_at_minus_inf != 0,
                 "count_leq_is_even: unexpected zero sign");
  return sign_right_at_t == sign_at_minus_inf;
}

BigInt solve_one_interval(const Poly& p, int index, const BigInt& k_lo,
                          const BigInt& k_hi,
                          const InterleavePointInfo& info_lo,
                          const InterleavePointInfo& info_hi, std::size_t mu,
                          const IntervalSolverConfig& config,
                          IntervalStats* stats, bool certified_probes) {
  IntervalStats local;
  IntervalStats& st = stats ? *stats : local;

  // Case 1: both interleaving approximations coincide; the root is squeezed
  // into the same cell.
  if (k_lo == k_hi) {
    st.case1 += 1;
    return k_lo;
  }
  check_internal(k_lo < k_hi, "solve_one_interval: unsorted interleave");

  // Case 2a: x_i <= y~_i, i.e. #roots <= y~_i is index+1 (it can only be
  // index or index+1); then x_i in (y~_i - 2^-mu, y~_i] and the answer is
  // k_lo.  Decided by parity of the count.
  const bool even_lo = count_leq_is_even(p, info_lo.sign_right_at);
  const bool count_lo_is_index = (even_lo == (index % 2 == 0));
  if (!count_lo_is_index) {
    st.case2a += 1;
    return k_lo;
  }

  // Case 2b: x_i > (k_hi - 1)/2^mu, i.e. #roots <= (k_hi-1)/2^mu is still
  // index; then x_i in (y~_{i+1} - 2^-mu, y~_{i+1}] and the answer is k_hi.
  const bool even_him = count_leq_is_even(p, info_hi.sign_right_at_minus);
  const bool count_him_is_index = (even_him == (index % 2 == 0));
  if (count_him_is_index) {
    st.case2b += 1;
    return k_hi;
  }

  // Case 2c: x_i in (y~_i, (k_hi-1)/2^mu] is genuinely isolated.
  st.case2c += 1;
  const BigInt hi_minus = k_hi - BigInt(1);
  if (info_hi.sign_at_minus == 0) {
    // The right cell boundary is the root itself.
    return hi_minus;
  }
  // Open interval (k_lo, k_hi - 1) with a strict sign change:
  //   left sign  = right-limit sign at k_lo (valid just right of k_lo),
  //   right sign = exact sign at k_hi - 1.
  return solve_isolated_interval(p, k_lo, hi_minus, info_lo.sign_right_at,
                                 info_hi.sign_at_minus, mu, config, &st,
                                 certified_probes);
}

std::vector<BigInt> solve_node_intervals(const Poly& p,
                                         const std::vector<BigInt>& ys,
                                         std::size_t mu,
                                         const BigInt& bound_scaled,
                                         const IntervalSolverConfig& config,
                                         IntervalStats* stats,
                                         bool certified_probes) {
  const int d = p.degree();
  check_arg(static_cast<int>(ys.size()) == d - 1,
            "solve_node_intervals: need d-1 interleaving points");

  // PREINTERVAL: analyze the d+1 points (two sentinels + d-1 child roots).
  std::vector<BigInt> points;
  points.reserve(static_cast<std::size_t>(d) + 1);
  points.push_back(-bound_scaled);
  for (const auto& y : ys) points.push_back(y);
  points.push_back(bound_scaled);

  std::vector<InterleavePointInfo> infos(points.size());
  for (std::size_t j = 0; j < points.size(); ++j) {
    infos[j] = analyze_interleave_point(p, points[j], mu, certified_probes);
  }

  // INTERVAL: one problem per root.
  std::vector<BigInt> roots;
  roots.reserve(static_cast<std::size_t>(d));
  for (int i = 0; i < d; ++i) {
    const auto j = static_cast<std::size_t>(i);
    roots.push_back(solve_one_interval(p, i, points[j], points[j + 1],
                                       infos[j], infos[j + 1], mu, config,
                                       stats, certified_probes));
  }
  return roots;
}

}  // namespace pr
