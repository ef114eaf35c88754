// Certified evaluation of a polynomial at a dyadic point, on one
// precision ladder.
//
// The interval problem (Section 2.2) decides every sieve step, bisection
// step and pre-interval case from the sign of a node polynomial at a
// dyadic point t / 2^w, and each Newton step from the integer part of
// 2^w p / p' there; QIR's steps need signs and magnitudes too
// (isolate/qir_refine).  Poly::eval_scaled gives the exact scaled
// Horner value, whose size grows to the full d * (w + bits(t)) + ||p||
// bits, while the value usually cancels only a few dozen bits.  Following
// the adaptive-precision evaluation Kerber and Sagraloff use for certified
// root refinement (arXiv:1104.1362), this module takes the answer from
// approximate Horner evaluations with rigorous running error bounds and
// raises the precision until the answer is certain:
//
//   - certified_sign_scaled, the first sign rung: a fixed two-limb
//     working precision (124 bits) for points |t| < 2^128.  The value is
//     kept as m * 2^e with 2^123 <= |m| < 2^124 (or m = 0) and an error
//     bound delta * 2^e, delta a double rounded up after every step; the
//     sign is certified only when |m| > delta.  It stays a separate
//     kernel because it is measurably faster on the tree's probes than
//     the general one at the same precision.
//   - bounded_eval_scaled, the general rung: a mantissa of P bits for any
//     |t| and w.  Each step multiplies and adds exactly and truncates the
//     mantissa to P bits, and the error bound is a double with its own
//     exponent, so neither a point far beyond 2^1024 nor a cancellation
//     of thousands of bits can overflow it.  It returns the certified
//     sign with bounds on the magnitude.
//   - certified_eval_scaled, the ladder: bounded_eval_scaled from a given
//     P, doubling P while the sign stays undecided, and the exact value
//     once P reaches the exact value's cost -- which an exact zero always
//     does, since a zero is never certified.
//   - filtered_sign_scaled: the first rung, then the ladder from 248 bits.
//     This is every certified sign of the pipeline: the pre-interval,
//     sieve and bisection probes (modular arithmetic on), the stored-cell
//     signs of refined hits and the multiplicity signs.
//   - bounded_quotient: the integer part of a quotient of two bounded
//     values, when the bounds' corners fix it, as QIR fixes its secant
//     index; newton_step_scaled climbs the ladder until it is fixed.
//     With modular arithmetic on, the interval solver's Newton steps take
//     p(x) and p'(x) from the ladder and the step from these.
//
// Each truncation, including reading only the top bits of a coefficient,
// adds at most one unit to the bound, and the inherited error scales
// exactly as the operation scales the value.  A certified sign is the
// exact sign by construction.  The rungs run on words (the general one in
// per-thread buffers), as the modular word arithmetic does, so the
// instrumentation counters see only the two BigInt additions that form a
// general rung's bounds, the exact value's Horner steps and the corner
// quotients' shifts and divisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "bigint/bigint.hpp"
#include "poly/poly.hpp"

namespace pr {

/// sign(p(t / 2^w)) -- the sign of p.eval_scaled(t, w) -- when the
/// fixed-precision evaluation certifies it; nullopt when it does not.
/// Never certifies a zero value, the zero polynomial, or a point with
/// |t| >= 2^128 (the working multiplier is two limbs).
std::optional<int> certified_sign_scaled(const Poly& p, const BigInt& t,
                                         std::size_t w);

/// What bounded_eval_scaled certified about v = p(t / 2^w).
struct ValueBounds {
  /// sign(v), or 0 when the evaluation did not decide it; a zero value
  /// always leaves it undecided.
  int sign = 0;
  /// lo * 2^exp <= |v| <= hi * 2^exp, 0 < lo <= hi, when sign != 0.
  BigInt lo;
  BigInt hi;
  std::int64_t exp = 0;
  /// The precision P that certified the sign; an exact value (lo == hi)
  /// from certified_eval_scaled has 0.
  std::size_t prec = 0;
};

/// Horner evaluation of p(t / 2^w) with a mantissa of at most `prec` bits
/// and a rigorous error bound.  Any |t| and w; the bounds are exact (lo ==
/// hi) when no step had to round.
ValueBounds bounded_eval_scaled(const Poly& p, const BigInt& t, std::size_t w,
                                std::size_t prec);

/// p(t / 2^w) with its sign decided: bounded_eval_scaled from `prec` bits,
/// doubling P while the sign stays undecided, and the exact value
/// 2^(dw) p(t / 2^w) as bounds lo == hi at exp = -dw once P reaches the
/// exact value's cost, about ||p|| + d * max(w, bits(t)) / 2 bits.  Its
/// sign is 0 only at a zero.  Each exact value adds one to *exact_evals
/// when that is given.
ValueBounds certified_eval_scaled(const Poly& p, const BigInt& t,
                                  std::size_t w, std::size_t prec,
                                  std::uint64_t* exact_evals);

/// Exact sign(p(t / 2^w)): certified_sign_scaled when it decides, else
/// certified_eval_scaled from 248 bits.
int filtered_sign_scaled(const Poly& p, const BigInt& t, std::size_t w);

/// trunc(2^s u / v) for the values u and v that `num` and `den` bound
/// (both signs nonzero), when the bounds fix it.  |u| 2^s / |v| grows with
/// |u| and falls with |v|, so its integer part lies between the corner
/// quotients floor(2^s lo_u / hi_v) and floor(2^s hi_u / lo_v); it is
/// returned when they agree, nullopt while they differ.  Exact bounds
/// (lo == hi on both) always fix it.
std::optional<BigInt> bounded_quotient(const ValueBounds& num,
                                       const ValueBounds& den, std::size_t s);

/// Newton's step e / d (truncated), e = p.eval_scaled(t, w) and d =
/// dp.eval_scaled(t, w) for dp = p', from the ladder's values vp of p and
/// vdp of dp at t (both signs nonzero): bounded_quotient(vp, vdp, w), and
/// while that is not fixed, each value that is not exact climbs to twice
/// its P, so at worst the ladder's exact values decide.
BigInt newton_step_scaled(const Poly& p, const Poly& dp, const BigInt& t,
                          std::size_t w, ValueBounds vp, ValueBounds vdp);

}  // namespace pr
