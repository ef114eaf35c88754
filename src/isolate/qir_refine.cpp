#include "isolate/qir_refine.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/scaled_point.hpp"
#include "poly/certified_sign.hpp"
#include "support/error.hpp"

namespace pr::isolate {

QirStats& QirStats::operator+=(const QirStats& o) {
  iters += o.iters;
  evals += o.evals;
  successes += o.successes;
  failures += o.failures;
  bisect_steps += o.bisect_steps;
  max_subdiv_log2 = std::max(max_subdiv_log2, o.max_subdiv_log2);
  exact_evals += o.exact_evals;
  return *this;
}

namespace {

/// Extra bits beyond the distance and coefficient terms of the starting
/// precision.
constexpr std::size_t kGuardBits = 64;

/// The first rung for a point of scale w about 2^-l of a `width`-unit
/// bracket away from the root: the bits that distance takes below the
/// unit, plus the coefficient size and a guard.
std::size_t start_prec(const Poly& p, std::size_t w, const BigInt& width,
                       std::size_t l) {
  const std::int64_t below_unit = static_cast<std::int64_t>(w + l) -
                                  static_cast<std::int64_t>(width.bit_length());
  return static_cast<std::size_t>(std::max<std::int64_t>(below_unit, 0)) +
         p.max_coeff_bits() + kGuardBits;
}

/// The secant index floor(|fa| 2^l / (|fa| + |fb|)), clamped below 2^l,
/// when the bounds fix it.  The ratio grows with |fa| and falls with |fb|,
/// so the bounds' corners give the least and the greatest index.
std::optional<BigInt> secant_index(const ValueBounds& fa,
                                   const ValueBounds& fb, std::size_t l) {
  const std::int64_t e = std::min(fa.exp, fb.exp);
  const auto at_e = [e](const BigInt& v, std::int64_t ex) {
    return v << static_cast<std::size_t>(ex - e);
  };
  const BigInt la = at_e(fa.lo, fa.exp), ua = at_e(fa.hi, fa.exp);
  const BigInt lb = at_e(fb.lo, fb.exp), ub = at_e(fb.hi, fb.exp);
  const BigInt last = BigInt::pow2(l) - BigInt(1);
  const BigInt jlo = std::min((la << l) / (la + ub), last);
  BigInt jhi = std::min((ua << l) / (ua + lb), last);
  if (jlo != jhi) return std::nullopt;
  return jhi;
}

}  // namespace

BigInt qir_solve(const Poly& p, const BigInt& lo, const BigInt& hi, int s_lo,
                 int s_hi, std::size_t w, std::size_t mu,
                 const QirConfig& config, QirStats* stats) {
  check_arg(lo < hi, "qir_solve: empty interval");
  check_arg(s_lo * s_hi == -1, "qir_solve: need a sign change");
  QirStats local;
  QirStats& st = stats ? *stats : local;

  // Work at scale W >= max(w, mu): fine enough to express the answer, with
  // guard bits so the final mu-cell is pinned rather than straddled.
  const std::size_t big = std::max(w, mu) + config.guard_bits;
  const std::size_t up = big - w;   // input scale -> working scale
  const std::size_t down = big - mu;  // working scale -> answer scale
  BigInt a = lo << up;
  BigInt b = hi << up;
  const int sa = s_lo;
  const auto value_at = [&](const BigInt& t, const BigInt& width,
                            std::size_t l) {
    return certified_eval_scaled(p, t, big, start_prec(p, big, width, l),
                                 &st.exact_evals);
  };

  // Bracket invariant: the root is in (a/2^W, b/2^W), sign(p) just right
  // of a is sa, just left of b is -sa.
  const auto pinned = [&]() -> std::optional<BigInt> {
    BigInt klo = floor_shift(a, down) + BigInt(1);
    BigInt khi = ceil_shift(b, down);
    if (klo == khi) return klo;
    return std::nullopt;
  };
  const auto exact_hit = [&](const BigInt& t) { return ceil_shift(t, down); };

  // Endpoint values.  An open endpoint can be an adjacent exact root of p;
  // nudge inward until the value is usable.  A zero at an *interior* point
  // can only be the cell's own root, exactly representable at scale W.
  const BigInt a0 = a;
  const BigInt b0 = b;
  st.evals += 1;
  ValueBounds fa = value_at(a, b - a, 0);
  while (fa.sign == 0) {
    if (a != a0) return exact_hit(a);
    if (auto k = pinned()) return *k;
    a += BigInt(1);
    st.evals += 1;
    fa = value_at(a, b - a, 0);
  }
  // Sign flipped within one unit of the original endpoint: the root is in
  // (a-1, a), and for consecutive integers ceil_shift(a) is its mu-cell.
  if (fa.sign != sa) return exact_hit(a);
  st.evals += 1;
  ValueBounds fb = value_at(b, b - a, 0);
  while (fb.sign == 0) {
    if (b != b0) return exact_hit(b);
    if (auto k = pinned()) return *k;
    b -= BigInt(1);
    st.evals += 1;
    fb = value_at(b, b - a, 0);
  }
  if (fb.sign == sa) return floor_shift(b, down) + BigInt(1);

  std::size_t subdiv_log2 = std::max<std::size_t>(config.initial_subdiv_log2,
                                                  1);
  while (true) {
    if (auto k = pinned()) return *k;
    st.iters += 1;
    const BigInt width = b - a;
    // A grid step must span at least one scale-W unit; below pinned()
    // width is >= 2, so l >= 1 always survives the clamp.
    const std::size_t cap = width.bit_length() - 1;
    const std::size_t l =
        std::min({subdiv_log2, cap, config.max_subdiv_log2});

    // Secant prediction: the root's grid cell if f were linear.  While the
    // bounds straddle a cell boundary, both ends climb to the next rung;
    // exact values (lo == hi) always fix the index.
    std::optional<BigInt> jj = secant_index(fa, fb, l);
    while (!jj) {
      if (fa.lo != fa.hi) {
        fa = certified_eval_scaled(p, a, big, 2 * fa.prec, &st.exact_evals);
      }
      if (fb.lo != fb.hi) {
        fb = certified_eval_scaled(p, b, big, 2 * fb.prec, &st.exact_evals);
      }
      jj = secant_index(fa, fb, l);
    }
    const BigInt& j = *jj;
    BigInt g0 = a + ((width * j) >> l);
    BigInt g1 = a + ((width * (j + BigInt(1))) >> l);

    ValueBounds f0;
    ValueBounds f1;
    if (g0 == a) {
      f0 = fa;
    } else {
      st.evals += 1;
      f0 = value_at(g0, width, l);
      if (f0.sign == 0) return exact_hit(g0);
    }
    if (g1 == b) {
      f1 = fb;
    } else {
      st.evals += 1;
      f1 = value_at(g1, width, l);
      if (f1.sign == 0) return exact_hit(g1);
    }

    if (f0.sign == sa && f1.sign == -sa) {
      // Prediction confirmed: bracket shrinks by ~2^l, N := N^2.
      a = std::move(g0);
      fa = std::move(f0);
      b = std::move(g1);
      fb = std::move(f1);
      st.successes += 1;
      st.max_subdiv_log2 = std::max(st.max_subdiv_log2, l);
      subdiv_log2 = std::min(2 * l, config.max_subdiv_log2);
      continue;
    }

    // Prediction missed.  The two signs still cut the bracket (the root is
    // left of g0 or right of g1); demote N := sqrt(N) and take one
    // guaranteed bisection step so worst-case progress stays linear.
    st.failures += 1;
    if (f0.sign != sa) {
      b = std::move(g0);
      fb = std::move(f0);
    } else {
      a = std::move(g1);
      fa = std::move(f1);
    }
    subdiv_log2 =
        std::max(config.initial_subdiv_log2, std::max<std::size_t>(l, 2) / 2);
    if (auto k = pinned()) return *k;
    BigInt mid = a + ((b - a) >> 1);
    if (mid > a && mid < b) {
      st.bisect_steps += 1;
      st.evals += 1;
      ValueBounds fm = value_at(mid, b - a, 1);
      if (fm.sign == 0) return exact_hit(mid);
      if (fm.sign == sa) {
        a = std::move(mid);
        fa = std::move(fm);
      } else {
        b = std::move(mid);
        fb = std::move(fm);
      }
    }
  }
}

}  // namespace pr::isolate
