#include "verify/certificate.hpp"

#include <sstream>

#include "core/scaled_point.hpp"
#include "modular/polyzp.hpp"
#include "modular/zp.hpp"
#include "poly/squarefree.hpp"
#include "poly/sturm.hpp"
#include "support/error.hpp"

namespace pr {

namespace {

void fail(RootCertificate& cert, std::string why) {
  cert.failures.push_back(std::move(why));
}

RootCertificate certify_impl(const Poly& squarefree,
                             const std::vector<BigInt>& roots,
                             std::size_t mu,
                             const std::vector<unsigned>* mults,
                             int original_degree) {
  RootCertificate cert;
  cert.mu = mu;

  const SturmChain chain(squarefree);
  cert.distinct_roots = chain.distinct_real_roots();

  if (static_cast<int>(roots.size()) != cert.distinct_roots) {
    fail(cert, "totality: " + std::to_string(roots.size()) +
                   " cells reported, Sturm counts " +
                   std::to_string(cert.distinct_roots) + " distinct roots");
  }

  // Cells must be nondecreasing.
  for (std::size_t i = 1; i < roots.size(); ++i) {
    if (roots[i] < roots[i - 1]) {
      fail(cert, "ordering: cell " + std::to_string(i) +
                     " decreases");
      break;
    }
  }

  // Walk groups of equal cells; each group of size g must contain exactly
  // g distinct roots, witnessed as cheaply as possible.
  int certified_total = 0;
  std::size_t i = 0;
  while (i < roots.size()) {
    std::size_t jend = i + 1;
    while (jend < roots.size() && roots[jend] == roots[i]) ++jend;
    const int group = static_cast<int>(jend - i);
    const BigInt& k = roots[i];
    const BigInt lo = k - BigInt(1);

    CellCertificate cell;
    cell.k = k;
    const int s_hi = squarefree.sign_at_scaled(k, mu);
    const int s_lo_r = sign_right_limit(squarefree, lo, mu);
    if (group == 1 && s_hi == 0) {
      cell.roots_inside = 1;
      cell.witness = CellWitness::kExactRoot;
      // Still must ensure no *other* root hides in the cell.
      const int cnt = chain.count_half_open(lo, k, mu);
      if (cnt != 1) {
        fail(cert, "cell " + k.to_decimal() + ": endpoint root plus " +
                       std::to_string(cnt - 1) + " extra root(s)");
        cell.roots_inside = cnt;
        cell.witness = CellWitness::kSturmCount;
      }
    } else if (group == 1 && s_lo_r * s_hi == -1) {
      const int cnt = chain.count_half_open(lo, k, mu);
      cell.roots_inside = cnt;
      cell.witness = CellWitness::kSignChange;
      if (cnt != 1) {
        fail(cert, "cell " + k.to_decimal() + ": sign change but " +
                       std::to_string(cnt) + " roots inside");
        cell.witness = CellWitness::kSturmCount;
      }
    } else {
      const int cnt = chain.count_half_open(lo, k, mu);
      cell.roots_inside = cnt;
      cell.witness = CellWitness::kSturmCount;
      if (cnt != group) {
        fail(cert, "cell " + k.to_decimal() + ": claimed " +
                       std::to_string(group) + " root(s), Sturm finds " +
                       std::to_string(cnt));
      }
    }
    certified_total += cell.roots_inside;
    cert.cells.push_back(std::move(cell));
    i = jend;
  }

  if (certified_total != cert.distinct_roots &&
      static_cast<int>(roots.size()) == cert.distinct_roots) {
    fail(cert, "coverage: cells certify " + std::to_string(certified_total) +
                   " roots, expected " + std::to_string(cert.distinct_roots));
  }

  if (mults != nullptr) {
    if (mults->size() != roots.size()) {
      fail(cert, "multiplicities: length mismatch");
    } else {
      unsigned long long total = 0;
      for (unsigned m : *mults) {
        if (m == 0) fail(cert, "multiplicities: zero entry");
        total += m;
      }
      if (original_degree >= 0 &&
          total != static_cast<unsigned long long>(original_degree) &&
          cert.distinct_roots == static_cast<int>(roots.size())) {
        // Only a hard failure when all roots are real (otherwise the
        // multiplicities cover just the real part of the spectrum).
        const SturmChain full_count(squarefree);
        if (full_count.distinct_real_roots() == squarefree.degree()) {
          fail(cert, "multiplicities: sum " + std::to_string(total) +
                         " != degree " + std::to_string(original_degree));
        }
      }
    }
  }

  cert.valid = cert.failures.empty();
  return cert;
}

}  // namespace

std::string RootCertificate::to_string() const {
  std::ostringstream os;
  os << (valid ? "VALID" : "INVALID") << " certificate: "
     << cells.size() << " cells, " << distinct_roots
     << " distinct real roots, mu = " << mu << "\n";
  for (const auto& c : cells) {
    os << "  cell ((k-1)/2^mu, k/2^mu], k = " << c.k.to_decimal() << ": "
       << c.roots_inside << " root(s), witness = ";
    switch (c.witness) {
      case CellWitness::kSignChange: os << "sign change"; break;
      case CellWitness::kExactRoot: os << "exact endpoint root"; break;
      case CellWitness::kSturmCount: os << "Sturm count"; break;
    }
    os << "\n";
  }
  for (const auto& f : failures) os << "  FAILURE: " << f << "\n";
  return os.str();
}

RootCertificate certify(const Poly& p, const RootReport& report) {
  const Poly sf = squarefree_part(p);
  return certify_impl(sf, report.roots, report.mu, &report.multiplicities,
                      p.degree());
}

RootCertificate certify_cells(const Poly& squarefree,
                              const std::vector<BigInt>& roots,
                              std::size_t mu) {
  return certify_impl(squarefree, roots, mu, nullptr, -1);
}

bool verify_remainder_sequence_mod(const RemainderSequence& rs,
                                   std::uint64_t prime, std::string* why) {
  using modular::PolyZp;
  using modular::PrimeField;
  using modular::Zp;
  check_arg(!rs.extended(),
            "verify_remainder_sequence_mod: requires a normal sequence");
  check_arg(rs.n >= 1 && rs.F.size() == static_cast<std::size_t>(rs.n) + 1,
            "verify_remainder_sequence_mod: malformed sequence");
  for (int t = 0; t <= rs.n; ++t) {
    check_arg(rs.has_level(t),
              "verify_remainder_sequence_mod: a partial sequence does not "
              "hold every level");
  }

  const PrimeField f(prime);
  PolyZp prev = PolyZp::from_poly(rs.F[0], f);
  PolyZp cur = PolyZp::from_poly(rs.F[1], f);
  // An unlucky prime (a vanished leading coefficient) leaves the rest of
  // the chain inconclusive, not wrong.
  if (prev.degree() != rs.n || cur.degree() != rs.n - 1) return true;

  for (int i = 1; i <= rs.n - 1; ++i) {
    // F_{i+1} = -(c_i^2 / c_{i-1}^2) * (F_{i-1} mod F_i), with the
    // Appendix-A convention c_0^2 == 1.  Field division makes this
    // machinery disjoint from the integer recurrence being checked.
    const Zp ci = cur.leading();
    const Zp cp = i == 1 ? f.one() : prev.leading();
    PolyZp q, r;
    PolyZp::divmod(prev, cur, f, q, r);
    const Zp scale = f.mul(f.mul(ci, ci), f.inv(f.mul(cp, cp)));
    const PolyZp next = r.scaled(f.neg(scale), f);

    const PolyZp expect =
        PolyZp::from_poly(rs.F[static_cast<std::size_t>(i) + 1], f);
    if (expect.degree() != rs.n - i - 1) return true;  // inconclusive
    if (!(next == expect)) {
      if (why != nullptr) {
        *why += "F_" + std::to_string(i + 1) +
                " does not reduce to its mod-" + std::to_string(prime) +
                " image";
      }
      return false;
    }
    prev = std::move(cur);
    cur = next;
  }
  return true;
}

}  // namespace pr
