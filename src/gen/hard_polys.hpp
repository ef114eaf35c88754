// Hard and *general* square-free workloads: inputs designed for the
// root-isolation subsystem (src/isolate/, FinderStrategy::kRadii).  The
// paper's interleaving tree requires every root real; mignotte() and (in
// general) random_squarefree_poly() violate that precondition on purpose,
// so the paper path answers them through its fallback, the general-input
// path the radii strategy runs (or throws NonNormalSequence when
// allow_sturm_fallback is off), which isolates their real roots with a
// certificate.
#pragma once

#include "poly/poly.hpp"
#include "support/prng.hpp"

namespace pr {

/// Mignotte-like polynomial x^n - 2 (a x - 1)^2 (n >= 3, a >= 2).
/// Eisenstein at 2, hence irreducible over Q and in particular
/// squarefree.  It has a pair of real roots separated by roughly
/// a^{-(n+2)/2} near 1/a -- the classic near-optimal root-separation
/// lower bound -- and all remaining roots complex.
Poly mignotte(int n, long long a);

/// Squarefree polynomial with `count` real roots clustered at pairwise
/// distinct offsets j/2^gap_bits from `center` (offsets drawn from
/// [0, 4*count) by `rng`; deterministic for a fixed seed).  All roots
/// real, so both finder strategies accept it; adjacent roots can be as
/// close as 2^-gap_bits.
Poly clustered_squarefree(int count, int gap_bits, long long center,
                          Prng& rng);

/// Uniformly random degree-`degree` integer polynomial with coefficients
/// in [-2^coeff_bits, 2^coeff_bits] (leading coefficient nonzero),
/// resampled until squarefree.  Complex roots are overwhelmingly likely
/// for degree >= 3.  Deterministic for a fixed seed.
Poly random_squarefree_poly(int degree, int coeff_bits, Prng& rng);

}  // namespace pr
