#include "baseline/descartes_finder.hpp"

#include <algorithm>

#include "core/scaled_point.hpp"
#include "instr/phase.hpp"
#include "support/error.hpp"

namespace pr {

std::vector<BigInt> descartes_find_roots(const Poly& p, std::size_t mu,
                                         const IntervalSolverConfig& config,
                                         IntervalStats* stats) {
  check_arg(p.degree() >= 1, "descartes_find_roots: degree >= 1 required");
  const isolate::IsolationOutput iso = [&] {
    instr::PhaseScope phase(instr::Phase::kBaseline);
    return isolate::isolate_roots(p);
  }();
  // The cells are sorted, so the roots come out nondecreasing.
  std::vector<BigInt> out;
  out.reserve(iso.cells.size());
  for (const auto& cell : iso.cells) {
    // Solve at scale w >= mu (the solver reports at its input's scale),
    // then round up to mu.
    const std::size_t w = std::max(cell.scale, mu);
    const std::size_t up = w - cell.scale;
    const BigInt at_w =
        cell.exact ? cell.lo << up
                   : solve_isolated_interval(iso.stripped, cell.lo << up,
                                             cell.hi << up, cell.s_lo,
                                             cell.s_hi, w, config, stats);
    out.push_back(ceil_shift(at_w, w - mu));
  }
  return out;
}

}  // namespace pr
