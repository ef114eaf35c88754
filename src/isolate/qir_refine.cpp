#include "isolate/qir_refine.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/scaled_point.hpp"
#include "support/error.hpp"

namespace pr::isolate {

QirStats& QirStats::operator+=(const QirStats& o) {
  iters += o.iters;
  evals += o.evals;
  successes += o.successes;
  failures += o.failures;
  bisect_steps += o.bisect_steps;
  max_subdiv_log2 = std::max(max_subdiv_log2, o.max_subdiv_log2);
  return *this;
}

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
  BigInt fa = p.eval_scaled(a, big);
  while (fa.is_zero()) {
    if (a != a0) return exact_hit(a);
    if (auto k = pinned()) return *k;
    a += BigInt(1);
    st.evals += 1;
    fa = p.eval_scaled(a, big);
  }
  // Sign flipped within one unit of the original endpoint: the root is in
  // (a-1, a), and for consecutive integers ceil_shift(a) is its mu-cell.
  if (fa.signum() != sa) return exact_hit(a);
  st.evals += 1;
  BigInt fb = p.eval_scaled(b, big);
  while (fb.is_zero()) {
    if (b != b0) return exact_hit(b);
    if (auto k = pinned()) return *k;
    b -= BigInt(1);
    st.evals += 1;
    fb = p.eval_scaled(b, big);
  }
  if (fb.signum() == sa) return floor_shift(b, down) + BigInt(1);

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

    // Secant prediction: the root's grid cell if f were linear.
    BigInt j = (fa.abs() << l) / (fa.abs() + fb.abs());
    const BigInt n_cells = BigInt::pow2(l);
    if (j >= n_cells) j = n_cells - BigInt(1);  // defensive clamp
    BigInt g0 = a + ((width * j) >> l);
    BigInt g1 = a + ((width * (j + BigInt(1))) >> l);

    int sg0;
    int sg1;
    BigInt f0;
    BigInt f1;
    if (g0 == a) {
      sg0 = sa;
      f0 = fa;
    } else {
      st.evals += 1;
      f0 = p.eval_scaled(g0, big);
      sg0 = f0.signum();
      if (sg0 == 0) return exact_hit(g0);
    }
    if (g1 == b) {
      sg1 = -sa;
      f1 = fb;
    } else {
      st.evals += 1;
      f1 = p.eval_scaled(g1, big);
      sg1 = f1.signum();
      if (sg1 == 0) return exact_hit(g1);
    }

    if (sg0 == sa && sg1 == -sa) {
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
    if (sg0 != sa) {
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
      BigInt fm = p.eval_scaled(mid, big);
      if (fm.is_zero()) return exact_hit(mid);
      if (fm.signum() == sa) {
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
