// Request canonicalization for the RootService (src/service/).
//
// Two textually different requests often name the same root set:
// "2x^2 - 4" and "x^2 - 2" differ by a content factor, "-x^2 + 2" by the
// sign of the leading coefficient.  Neither transform moves a root, so
// the service folds every request onto a canonical representative --
// the primitive part with positive leading coefficient -- and keys its
// result cache by a hash of that representative.  The divided-out content
// and the sign flip are recorded in the CanonicalRequest so the mapping
// back from cached roots is explicit (for this normalization it is the
// identity on roots; the record is what makes that exactness auditable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "isolate/isolate_config.hpp"
#include "poly/poly.hpp"

namespace pr::service {

/// Largest precision a request may ask for: above the CLI's largest
/// (--digits 100000 asks for 332,197 bits), and small enough that one
/// 2^mu scaling stays within 128 KiB.
constexpr std::size_t kMaxMuBits = std::size_t{1} << 20;

/// A parsed, validated request in canonical form.
struct CanonicalRequest {
  /// Primitive part of the input, positive leading coefficient.  Its
  /// roots (with multiplicities) are exactly the input's roots.
  Poly canonical;
  /// Positive content divided out of the input (|leading gcd| factor).
  BigInt content;
  /// True iff normalization flipped the sign of the leading coefficient.
  bool negated = false;
  /// Requested output precision, ceil(2^mu x) convention.
  std::size_t mu_bits = 0;
  /// Finder strategy the request runs under.  Part of the cache key:
  /// the strategies accept different input classes (kRadii takes
  /// square-free inputs with complex roots that kPaper rejects), so a
  /// result computed under one must never answer for the other.
  FinderStrategy strategy = FinderStrategy::kPaper;
  /// Cache key: canonical_request_hash(canonical, strategy).  Collisions
  /// are resolved by exact comparison against (`canonical`, `strategy`),
  /// never trusted blindly.
  std::uint64_t hash = 0;
};

/// Deterministic 64-bit hash over (degree, coefficient signs and limbs).
/// Stable within a process run and across threads; NOT a persistence
/// format (limb layout, not decimal digits, is what gets hashed).
std::uint64_t canonical_poly_hash(const Poly& p);

/// Cache key for a strategy-tagged request: canonical_poly_hash mixed
/// with the finder strategy.
std::uint64_t canonical_request_hash(const Poly& p, FinderStrategy strategy);

/// Canonicalizes an already-parsed polynomial.  Throws InvalidArgument if
/// p is constant (degree < 1), the root finder's contract, or if mu_bits
/// exceeds kMaxMuBits.
CanonicalRequest canonicalize(const Poly& p, std::size_t mu_bits,
                              FinderStrategy strategy = FinderStrategy::kPaper);

/// Parses one request line and canonicalizes it.  Parse errors propagate
/// as InvalidArgument carrying the offending position and input text
/// (Poly::parse's diagnostic); validation failures (constant input, an
/// oversized mu_bits) get the same treatment.  This is the single entry
/// point service requests go through, so every rejection is diagnosable
/// from the message alone.
CanonicalRequest parse_request(std::string_view text, std::size_t mu_bits,
                               FinderStrategy strategy = FinderStrategy::kPaper);

}  // namespace pr::service
