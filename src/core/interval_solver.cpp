#include "core/interval_solver.hpp"

#include <cmath>
#include <optional>

#include "core/scaled_point.hpp"
#include "instr/phase.hpp"
#include "poly/certified_sign.hpp"
#include "support/error.hpp"

namespace pr {

IntervalStats& IntervalStats::operator+=(const IntervalStats& o) {
  sieve_evals += o.sieve_evals;
  bisect_evals += o.bisect_evals;
  newton_iters += o.newton_iters;
  newton_evals += o.newton_evals;
  fallback_bisects += o.fallback_bisects;
  intervals_solved += o.intervals_solved;
  case1 += o.case1;
  case2a += o.case2a;
  case2b += o.case2b;
  case2c += o.case2c;
  return *this;
}

namespace {

/// ceil(log2(5 * d^2)): shifting by this many bits over-approximates the
/// Renegar factor of Lemma 2.1 without BigInt multiplications (which would
/// pollute the per-phase multiplication counters).
std::size_t renegar_shift(int degree) {
  const double v = 5.0 * static_cast<double>(degree) *
                   static_cast<double>(degree);
  return static_cast<std::size_t>(std::ceil(std::log2(v)));
}

/// Bits beyond the scale w at which Newton's values enter the precision
/// ladder.  At distance 2^-k from the root the step has about w - k bits
/// and p(x) cancels about k bits of its Horner terms, so w bits and a
/// margin for the node's conditioning fix the quotient at the first rung.
/// On tree-large's seed-1 inputs (Jacobi-64/96/128, Berkowitz-64 and
/// repeated-root inputs, one thread) this margin climbed no rung at mu
/// 53, 256 or 1024; a margin of 128 bits climbed 12, 25 and 36.
constexpr std::size_t kNewtonStartGuard = 192;

}  // namespace

BigInt solve_isolated_interval(const Poly& p, const BigInt& lo,
                               const BigInt& hi, int s_lo, int s_hi,
                               std::size_t mu,
                               const IntervalSolverConfig& config,
                               IntervalStats* stats, bool certified_probes) {
  check_arg(lo < hi, "solve_isolated_interval: empty interval");
  check_arg(s_lo * s_hi == -1, "solve_isolated_interval: need a sign change");
  IntervalStats local;
  IntervalStats& st = stats ? *stats : local;
  st.intervals_solved += 1;

  // The answer k = ceil(2^mu x) satisfies lo < k <= hi; with a single
  // candidate there is nothing to compute.
  {
    BigInt single = lo + BigInt(1);
    if (single == hi) return hi;
  }

  const std::size_t g = config.guard_bits;
  const std::size_t w = mu + g;
  BigInt a = lo << g;
  BigInt b = hi << g;
  int sa = s_lo;

  // The bracket invariant throughout: x in (a/2^w, b/2^w), sign at a is sa
  // (never 0), sign at b is -sa.
  const auto pinned = [&]() -> std::optional<BigInt> {
    BigInt klo = floor_shift(a, g) + BigInt(1);
    BigInt khi = ceil_shift(b, g);
    if (klo == khi) return klo;
    return std::nullopt;
  };
  const auto exact_hit = [&](const BigInt& t) { return ceil_shift(t, g); };
  const auto probe_sign = [&](const BigInt& t, std::uint64_t& counter) {
    counter += 1;
    return certified_probes ? filtered_sign_scaled(p, t, w)
                            : p.sign_at_scaled(t, w);
  };

  // ---- Phase 1: double-exponential sieve (Section 2.2) ------------------
  if (config.mode == IntervalSolverConfig::Mode::kHybrid) {
    instr::PhaseScope phase(instr::Phase::kSieve);
    while (true) {
      if (auto k = pinned()) return *k;
      BigInt len = b - a;
      if (len.bit_length() <= g + 1) break;  // within ~2 mu-cells: stop
      BigInt mid = a + (len >> 1);
      const int s = probe_sign(mid, st.sieve_evals);
      if (s == 0) return exact_hit(mid);
      const bool left = (s != sa);  // root in (a, mid) ?
      if (left) {
        b = mid;
      } else {
        a = mid;
        sa = s;
      }
      // Probe geometrically closer to the near end: offsets len / 2^(2^i).
      bool shrank = false;
      for (std::size_t i = 1;; ++i) {
        const std::size_t shift = std::size_t{1} << i;  // 2^i
        if (shift >= len.bit_length()) break;           // offset would be 0
        BigInt off = len >> shift;
        BigInt probe = left ? a + off : b - off;
        if (!(probe > a && probe < b)) break;
        const int s2 = probe_sign(probe, st.sieve_evals);
        if (s2 == 0) return exact_hit(probe);
        if (left) {
          if (s2 != sa) {
            b = probe;  // root still hugs the left end; jump again
            shrank = true;
          } else {
            a = probe;  // root is in the outer part: sieve is done
            sa = s2;
            shrank = false;
            break;
          }
        } else {
          if (s2 != sa) {
            b = probe;
            shrank = false;
            break;
          }
          a = probe;
          sa = s2;
          shrank = true;
        }
      }
      if (!shrank) break;  // root not pinned to an end: go bisect
    }
  }

  // ---- Phase 2: bisection ------------------------------------------------
  // Every other root of p lies outside the *original* isolating interval
  // (a0, b0), so the distance rho from the sought root xi to its nearest
  // neighbour satisfies rho >= min(a - a0, b0 - b) once the bracket (a, b)
  // has pulled away from both original endpoints.  Bisect until the
  // bracket width is below that bound divided by 5 d^2: then every point
  // of the bracket satisfies Renegar's Lemma 2.1 and Newton converges
  // quadratically from the start.  Combined with the sieve this costs
  // ~log2(10 d^2) + O(1) probes -- the budget the paper's Eq. (38)/(41)
  // assigns to this phase.
  {
    instr::PhaseScope phase(instr::Phase::kBisect);
    const bool pure =
        config.mode == IntervalSolverConfig::Mode::kPureBisection;
    const BigInt a0 = lo << g;
    const BigInt b0 = hi << g;
    const std::size_t shift = renegar_shift(p.degree());
    while (true) {
      if (auto k = pinned()) return *k;
      if (!pure) {
        const BigInt margin_lo = a - a0;
        const BigInt margin_hi = b0 - b;
        const BigInt& margin = margin_lo < margin_hi ? margin_lo : margin_hi;
        if (b - a <= (margin >> shift)) break;  // Newton-safe bracket
      }
      BigInt len = b - a;
      BigInt mid = a + (len >> 1);
      const int s = probe_sign(mid, st.bisect_evals);
      if (s == 0) return exact_hit(mid);
      if (s == sa) {
        a = mid;
      } else {
        b = mid;
      }
    }
  }

  // ---- Phase 3: safeguarded integer Newton -------------------------------
  // The step is the truncated quotient e / d of the scaled values e =
  // 2^(dw) p(x) and d = 2^((d-1)w) p'(x).  With certified probes, p(x) and
  // p'(x) come from the precision ladder and the step from their bounds
  // (newton_step_scaled).  The ladder's sign is 0 only at a zero, so every
  // iterate is the one the exact values give.
  {
    instr::PhaseScope phase(instr::Phase::kNewton);
    const Poly dp = p.derivative();
    const std::size_t prec = w + kNewtonStartGuard;
    BigInt x = a + ((b - a) >> 1);
    BigInt e, d;         // exact values (certified probes off)
    ValueBounds fe, fd;  // their bounds (certified probes on)
    const auto value_sign = [&](const Poly& f, BigInt& exact,
                                ValueBounds& bounds) {
      if (!certified_probes) {
        exact = f.eval_scaled(x, w);
        return exact.signum();
      }
      bounds = certified_eval_scaled(f, x, w, prec, nullptr);
      return bounds.sign;
    };
    while (true) {
      if (auto k = pinned()) return *k;
      st.newton_iters += 1;
      st.newton_evals += 1;
      const int se = value_sign(p, e, fe);
      if (se == 0) return exact_hit(x);
      // Shrink the bracket with the sign we just paid for.
      if (se == sa) {
        a = x;
      } else {
        b = x;
      }
      if (auto k = pinned()) return *k;
      st.newton_evals += 1;
      BigInt next;
      bool use_bisect = value_sign(dp, d, fd) == 0;
      if (!use_bisect) {
        // x' = x - p(x)/p'(x); in scaled units the correction is e / d.
        const BigInt step =
            certified_probes
                ? newton_step_scaled(p, dp, x, w, std::move(fe), std::move(fd))
                : e / d;
        if (step.is_zero()) {
          // Newton has converged to within one scale-w unit of the root
          // on this side; the far bracket side is still wide open.  Close
          // it by probing the adjacent point toward the root (normally a
          // single probe pins the answer).
          next = (se == sa) ? x + BigInt(1) : x - BigInt(1);
        } else {
          next = x - step;
        }
        if (!(next > a && next < b)) use_bisect = true;
      }
      if (use_bisect) {
        st.fallback_bisects += 1;
        next = a + ((b - a) >> 1);
      }
      x = std::move(next);
    }
  }
}

}  // namespace pr
