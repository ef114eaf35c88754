#include "isolate/isolate.hpp"

#include <algorithm>
#include <utility>

#include "core/scaled_point.hpp"
#include "poly/bounds.hpp"
#include "poly/squarefree.hpp"
#include "support/error.hpp"

namespace pr {

const char* finder_strategy_name(FinderStrategy s) {
  switch (s) {
    case FinderStrategy::kPaper:
      return "paper";
    case FinderStrategy::kRadii:
      return "radii";
  }
  return "?";
}

}  // namespace pr

namespace pr::isolate {

void IsolationRun::reduce(const Poly& g) {
  SquarefreeReduction sf = squarefree_reduce(work, g);
  factors = std::move(sf.factors);
  work = std::move(sf.part);
  reduced = true;
}

void isolate_run(IsolationRun& run) {
  // Unlike the paper path -- where the remainder sequence detects repeated
  // roots as a side effect -- the Descartes isolator needs squarefreeness up
  // front (Descartes subdivision does not terminate otherwise), so test
  // with a gcd and reduce with that same gcd only when it is non-trivial.
  if (!run.reduced && run.work.degree() >= 2) {
    const Poly g = poly_gcd(run.work, run.work.derivative());
    if (g.degree() > 0) run.reduce(g);
  }
  run.bound_pow2 = root_bound_pow2(run.work);
  if (run.work.degree() >= 2) {
    run.isolation = isolate_roots(run.work);
  }
}

IsolationRun prepare_isolation(const Poly& p, const RootFinderConfig&) {
  check_arg(p.degree() >= 1, "RealRootFinder: degree must be >= 1");
  IsolationRun run;
  run.input_degree = p.degree();
  run.work = p.primitive_part();
  isolate_run(run);
  return run;
}

BigInt cell_mu_approx(const Poly& p, const IsolatingCell& cell,
                      std::size_t mu, const QirConfig& config,
                      QirStats* stats) {
  if (cell.exact) {
    return cell.scale <= mu ? cell.lo << (mu - cell.scale)
                            : ceil_shift(cell.lo, cell.scale - mu);
  }
  return qir_solve(p, cell.lo, cell.hi, cell.s_lo, cell.s_hi,
                   cell.scale, mu, config, stats);
}

IntervalStats qir_interval_stats(const std::vector<IsolatingCell>& cells,
                                 const QirStats& qir) {
  IntervalStats stats;
  for (const auto& cell : cells) {
    if (!cell.exact) stats.intervals_solved += 1;
  }
  stats.newton_iters = qir.iters;
  stats.newton_evals = qir.evals;
  stats.fallback_bisects = qir.bisect_steps;
  return stats;
}

RootReport assemble_report(const IsolationRun& run,
                           const RootFinderConfig& config,
                           std::vector<BigInt> roots,
                           const IntervalStats& stats) {
  RootReport report;
  report.mu = config.mu_bits;
  report.degree = run.input_degree;
  report.bound_pow2 = run.bound_pow2;
  std::sort(roots.begin(), roots.end());
  report.roots = std::move(roots);
  report.distinct_roots = static_cast<int>(report.roots.size());
  report.squarefree_reduced = run.reduced;
  if (run.reduced) {
    report.multiplicities = detail::assign_multiplicities(
        report.roots, config.mu_bits, run.factors);
  } else {
    report.multiplicities.assign(report.roots.size(), 1);
  }
  report.stats = stats;
  if (config.validate) {
    detail::validate_roots(run.work, report.roots, config.mu_bits);
  }
  return report;
}

RootReport assemble_report(const IsolationRun& run,
                           const RootFinderConfig& config,
                           std::vector<BigInt> roots, const QirStats& qir) {
  return assemble_report(run, config, std::move(roots),
                         qir_interval_stats(run.isolation.cells, qir));
}

}  // namespace pr::isolate
