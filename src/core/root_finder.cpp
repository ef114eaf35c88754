#include "core/root_finder.hpp"

#include "core/parallel_driver.hpp"
#include "core/scaled_point.hpp"
#include "poly/sturm.hpp"

namespace pr {

double RootReport::root_as_double(std::size_t i) const {
  return scaled_to_double(roots.at(i), mu);
}

namespace detail {

std::vector<unsigned> assign_multiplicities(
    const std::vector<BigInt>& roots, std::size_t mu,
    const std::vector<SquarefreeFactor>& factors) {
  struct FactorChain {
    const SquarefreeFactor* f;
    SturmChain chain;
    int pending = 0;  // roots in the current shared cell not yet assigned
  };
  std::vector<FactorChain> chains;
  chains.reserve(factors.size());
  for (const auto& f : factors) chains.push_back({&f, SturmChain(f.factor), 0});

  std::vector<unsigned> mult(roots.size(), 1);
  std::size_t i = 0;
  while (i < roots.size()) {
    // Group roots sharing the same cell value.
    std::size_t jend = i + 1;
    while (jend < roots.size() && roots[jend] == roots[i]) ++jend;
    const BigInt lo = roots[i] - BigInt(1);
    for (auto& fc : chains) {
      fc.pending = fc.chain.count_half_open(lo, roots[i], mu);
    }
    for (std::size_t r = i; r < jend; ++r) {
      for (auto& fc : chains) {
        if (fc.pending > 0) {
          mult[r] = fc.f->multiplicity;
          fc.pending -= 1;
          break;
        }
      }
    }
    i = jend;
  }
  return mult;
}

}  // namespace detail

RootReport RealRootFinder::find(const Poly& p) const {
  return find_real_roots_parallel(p, config_, ParallelConfig{}).report;
}

RootReport find_real_roots(const Poly& p, RootFinderConfig config) {
  return RealRootFinder(config).find(p);
}

}  // namespace pr
