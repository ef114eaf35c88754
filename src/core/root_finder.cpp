#include "core/root_finder.hpp"

#include <optional>

#include "core/parallel_driver.hpp"
#include "core/scaled_point.hpp"
#include "poly/certified_sign.hpp"
#include "poly/sturm.hpp"
#include "support/error.hpp"

namespace pr {

double RootReport::root_as_double(std::size_t i) const {
  return scaled_to_double(roots.at(i), mu);
}

namespace detail {

std::vector<unsigned> assign_multiplicities(
    const std::vector<BigInt>& roots, std::size_t mu,
    const std::vector<SquarefreeFactor>& factors) {
  // Sturm chains are built on first need, one per factor.
  std::vector<std::optional<SturmChain>> chains(factors.size());
  std::vector<int> pending(factors.size());  // per factor, in a shared cell
  std::vector<unsigned> mult(roots.size(), 1);
  std::size_t i = 0;
  while (i < roots.size()) {
    // Group roots sharing the same cell value.
    std::size_t jend = i + 1;
    while (jend < roots.size() && roots[jend] == roots[i]) ++jend;
    const BigInt& hi = roots[i];
    const BigInt lo = hi - BigInt(1);
    if (jend == i + 1) {
      // One root in (lo, hi]: exactly one factor has a (simple) root
      // there, so it vanishes at hi or changes sign across the cell, and
      // every other factor keeps one sign on the whole cell.
      std::size_t owner = 0;
      int owners = 0;
      for (std::size_t f = 0; f < factors.size(); ++f) {
        const Poly& q = factors[f].factor;
        const int at_hi = filtered_sign_scaled(q, hi, mu);
        int right_of_lo = filtered_sign_scaled(q, lo, mu);
        if (right_of_lo == 0) right_of_lo = sign_right_limit(q, lo, mu);
        if (at_hi == 0 || at_hi != right_of_lo) {
          owner = f;
          owners += 1;
        }
      }
      if (owners == 1) {
        mult[i] = factors[owner].multiplicity;
        i = jend;
        continue;
      }
    }
    // Several roots share the cell (or the signs did not single out one
    // owner): count each factor's roots in it and consume the counts in
    // factor order.
    for (std::size_t f = 0; f < factors.size(); ++f) {
      if (!chains[f]) chains[f].emplace(factors[f].factor);
      pending[f] = chains[f]->count_half_open(lo, hi, mu);
    }
    for (std::size_t r = i; r < jend; ++r) {
      for (std::size_t f = 0; f < factors.size(); ++f) {
        if (pending[f] > 0) {
          mult[r] = factors[f].multiplicity;
          pending[f] -= 1;
          break;
        }
      }
    }
    i = jend;
  }
  return mult;
}

void validate_roots(const Poly& work, const std::vector<BigInt>& roots,
                    std::size_t mu) {
  SturmChain chain(work);
  check_internal(static_cast<int>(roots.size()) == chain.distinct_real_roots(),
                 "validate: wrong number of roots returned");
  std::size_t i = 0;
  while (i < roots.size()) {
    std::size_t jend = i + 1;
    while (jend < roots.size() && roots[jend] == roots[i]) ++jend;
    const BigInt lo = roots[i] - BigInt(1);
    const int cnt = chain.count_half_open(lo, roots[i], mu);
    check_internal(cnt == static_cast<int>(jend - i),
                   "validate: cell does not contain its claimed roots");
    i = jend;
  }
}

}  // namespace detail

RootReport RealRootFinder::find(const Poly& p) const {
  return find_real_roots_parallel(p, config_, ParallelConfig{}).report;
}

RootReport find_real_roots(const Poly& p, RootFinderConfig config) {
  return RealRootFinder(config).find(p);
}

}  // namespace pr
