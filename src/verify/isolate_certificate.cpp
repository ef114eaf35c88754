#include "verify/isolate_certificate.hpp"

#include <sstream>

#include "poly/squarefree.hpp"
#include "poly/sturm.hpp"

namespace pr {

namespace {

void fail(IsolationCertificate& cert, std::string why) {
  cert.failures.push_back(std::move(why));
}

std::string cell_str(const isolate::IsolatingCell& c) {
  std::ostringstream os;
  if (c.exact) {
    os << "exact " << c.lo.to_decimal() << "/2^" << c.scale;
  } else {
    os << "(" << c.lo.to_decimal() << ", " << c.hi.to_decimal() << ")/2^"
       << c.scale;
  }
  return os.str();
}

/// Compares the two dyadic endpoints a/2^wa <= b/2^wb (cross-multiplied to
/// the common scale).
bool dyadic_le(const BigInt& a, std::size_t wa, const BigInt& b,
               std::size_t wb) {
  const std::size_t w = wa > wb ? wa : wb;
  return !((b << (w - wb)) < (a << (w - wa)));
}

bool squarefree(const Poly& p) {
  return poly_gcd(p, p.derivative()).degree() == 0;
}

/// The certificate of an input that is not squarefree: the simple-root
/// reasoning of certify_impl would be unsound.
IsolationCertificate not_squarefree(std::size_t cells_checked) {
  IsolationCertificate cert;
  cert.cells_checked = cells_checked;
  fail(cert, "input is not squarefree (gcd(p, p') is nonconstant)");
  return cert;
}

/// Certifies `cells` against `p`, whose roots the non-exact cells bracket.
/// `exact_poly` is the squarefree polynomial exact cells must be roots of
/// (the unstripped input); for certify_cells_isolated the two coincide.
IsolationCertificate certify_impl(const Poly& p, const Poly& exact_poly,
                                  const std::vector<isolate::IsolatingCell>& cells) {
  IsolationCertificate cert;
  cert.cells_checked = cells.size();

  const SturmChain chain(exact_poly);
  cert.distinct_real_roots = chain.distinct_real_roots();
  if (static_cast<int>(cells.size()) != cert.distinct_real_roots) {
    fail(cert, "totality: " + std::to_string(cells.size()) +
                   " cell(s) reported, Sturm counts " +
                   std::to_string(cert.distinct_real_roots) +
                   " distinct real roots");
  }

  const bool strips_zero = &p != &exact_poly && exact_poly.coeff(0).is_zero();

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    if (c.exact) {
      if (!(c.lo == c.hi)) {
        fail(cert, "cell " + cell_str(c) + ": exact cell with lo != hi");
      }
      if (exact_poly.sign_at_scaled(c.lo, c.scale) != 0) {
        fail(cert, "cell " + cell_str(c) + ": claimed exact root is not a root");
      }
    } else {
      if (!(c.lo < c.hi)) {
        fail(cert, "cell " + cell_str(c) + ": empty interval");
      }
      // One root inside the *open* interval: one-sided signs, because an
      // endpoint may itself be an adjacent exact root.
      const int s_lo = sign_right_limit(p, c.lo, c.scale);
      const int s_hi = sign_left_limit(p, c.hi, c.scale);
      if (s_lo * s_hi != -1) {
        fail(cert, "cell " + cell_str(c) + ": endpoint signs " +
                       std::to_string(s_lo) + "/" + std::to_string(s_hi) +
                       " do not certify a sign change");
      }
      // When the pipeline divided out a root at zero, the sign change is
      // for the stripped polynomial; it only transfers to the input if the
      // cell excludes zero (the zero root has its own exact cell).
      if (strips_zero && c.lo.signum() < 0 && c.hi.signum() > 0) {
        fail(cert, "cell " + cell_str(c) +
                       ": open cell straddles the stripped zero root");
      }
    }
    // Pairwise disjointness via sortedness: the previous cell's upper end
    // must not exceed this cell's lower end, strictly so when both are
    // exact (two equal exact cells would double-count one root).
    if (i > 0) {
      const auto& prev = cells[i - 1];
      const bool both_exact = prev.exact && c.exact;
      if (!dyadic_le(prev.hi, prev.scale, c.lo, c.scale) ||
          (both_exact && dyadic_le(c.lo, c.scale, prev.hi, prev.scale))) {
        fail(cert, "cells " + cell_str(prev) + " and " + cell_str(c) +
                       " overlap");
      }
    }
  }

  // Disjoint cells each holding >= 1 distinct root, with exactly as many
  // cells as real roots, isolate: one root per cell, none missed.
  cert.valid = cert.failures.empty();
  return cert;
}

}  // namespace

std::string IsolationCertificate::to_string() const {
  std::ostringstream os;
  os << (valid ? "VALID" : "INVALID") << " isolation certificate: "
     << cells_checked << " cell(s), " << distinct_real_roots
     << " distinct real root(s)\n";
  for (const auto& f : failures) os << "  FAILURE: " << f << "\n";
  return os.str();
}

IsolationCertificate certify_cells_isolated(
    const Poly& p, const std::vector<isolate::IsolatingCell>& cells) {
  if (!squarefree(p)) return not_squarefree(cells.size());
  return certify_impl(p, p, cells);
}

IsolationCertificate certify_isolation(const Poly& p) {
  // Before the isolator runs: its subdivision does not terminate on a
  // repeated root.
  if (!squarefree(p)) return not_squarefree(0);
  const auto out = isolate::isolate_roots(p);
  return certify_impl(out.stripped, p, out.cells);
}

}  // namespace pr
