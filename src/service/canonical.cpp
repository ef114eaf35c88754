#include "service/canonical.hpp"

#include <string>

#include "support/error.hpp"

namespace pr::service {

namespace {

/// splitmix64 finalizer: cheap, well-mixed, deterministic.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t canonical_poly_hash(const Poly& p) {
  std::uint64_t h = mix(0x706f6c79ull ^ static_cast<std::uint64_t>(
                                            p.degree() + 1));
  for (const auto& c : p.coeffs()) {
    h = mix(h ^ static_cast<std::uint64_t>(c.signum() + 2));
    h = mix(h ^ c.limb_count());
    for (std::size_t i = 0; i < c.limb_count(); ++i) {
      h = mix(h ^ c.limb(i));
    }
  }
  return h;
}

std::uint64_t canonical_request_hash(const Poly& p, FinderStrategy strategy) {
  return mix(canonical_poly_hash(p) ^
             (0x73747261ull + static_cast<std::uint64_t>(strategy)));
}

CanonicalRequest canonicalize(const Poly& p, std::size_t mu_bits,
                              FinderStrategy strategy) {
  if (p.degree() < 1) {
    throw InvalidArgument(
        "RootService: polynomial must be non-constant (got \"" +
        p.to_string() + "\")");
  }
  if (mu_bits > kMaxMuBits) {
    throw InvalidArgument("RootService: mu_bits " + std::to_string(mu_bits) +
                          " exceeds the limit of " +
                          std::to_string(kMaxMuBits));
  }
  CanonicalRequest req;
  req.negated = p.leading().signum() < 0;
  req.content = p.content();
  req.canonical = p.primitive_part();  // positive leading coeff by contract
  req.mu_bits = mu_bits;
  req.strategy = strategy;
  req.hash = canonical_request_hash(req.canonical, strategy);
  return req;
}

CanonicalRequest parse_request(std::string_view text, std::size_t mu_bits,
                               FinderStrategy strategy) {
  // Poly::parse already rejects empty/whitespace-only input and malformed
  // terms with a position diagnostic; canonicalize() adds the degree
  // check.  Both throw InvalidArgument, the one error type callers see.
  return canonicalize(Poly::parse(text), mu_bits, strategy);
}

}  // namespace pr::service
