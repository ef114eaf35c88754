// Certified sign of a polynomial at a dyadic point, at fixed precision.
//
// The interval problem (Section 2.2) decides every sieve step, bisection
// step and pre-interval case from the sign of a node polynomial at a
// dyadic point t / 2^w.  Poly::sign_at_scaled gets it from the exact
// scaled Horner value, whose size grows to the full d * (w + bits(t)) +
// ||p|| bits, while the value usually cancels only a few dozen bits.
// certified_sign_scaled runs the same Horner rule at a fixed two-limb
// working precision with a rigorous running error bound, in the spirit of
// the adaptive-precision evaluation Kerber and Sagraloff use for certified
// root refinement (arXiv:1104.1362), and answers only when the
// approximation clears the bound.  A certified sign is the exact sign by
// construction; an uncertified probe is left to the exact evaluation.
//
// The value is kept as m * 2^e with 2^123 <= |m| < 2^124 (or m = 0) and
// an error bound delta * 2^e, delta a double that is rounded up after
// every step.  Each operation runs exactly on the approximations and is
// then truncated; each truncation, including reading only the top bits of
// a coefficient, adds at most one unit, and the inherited error scales
// exactly as the operation scales the value.  The sign is certified only
// when |m| > delta, so an exact zero is never certified.
//
// Word arithmetic only: nothing is reported to the instrumentation
// counters (as for the modular word arithmetic) and nothing allocates.
//
// bounded_eval_scaled is the same Horner rule at a caller-chosen precision
// of P bits, for points of any size: each step multiplies and adds exactly
// and then truncates the mantissa to P bits, and the error bound is a
// double with its own exponent, so that neither a point far beyond 2^1024
// nor a cancellation of thousands of bits can overflow it.  It returns the
// certified sign with bounds on the magnitude, which is what QIR's secant
// step needs (isolate/qir_refine).  It too runs on words, in per-thread
// buffers, and reports nothing to the instrumentation counters.
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

/// Exact sign(p(t / 2^w)): the certified sign when certified_sign_scaled
/// decides it, otherwise p.sign_at_scaled(t, w).
int filtered_sign_scaled(const Poly& p, const BigInt& t, std::size_t w);

/// What bounded_eval_scaled certified about v = p(t / 2^w).
struct ValueBounds {
  /// sign(v), or 0 when the evaluation did not decide it; a zero value
  /// always leaves it undecided.
  int sign = 0;
  /// lo * 2^exp <= |v| <= hi * 2^exp, 0 < lo <= hi, when sign != 0.
  BigInt lo;
  BigInt hi;
  std::int64_t exp = 0;
};

/// Horner evaluation of p(t / 2^w) with a mantissa of at most `prec` bits
/// and a rigorous error bound.  Any |t| and w; the bounds are exact (lo ==
/// hi) when no step had to round.
ValueBounds bounded_eval_scaled(const Poly& p, const BigInt& t, std::size_t w,
                                std::size_t prec);

}  // namespace pr
