#include "isolate/isolate.hpp"

#include <algorithm>
#include <utility>

#include "core/scaled_point.hpp"
#include "poly/bounds.hpp"
#include "poly/squarefree.hpp"
#include "sched/task_pool.hpp"
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

namespace {

BigInt linear_root(const Poly& work, std::size_t mu) {
  return BigInt::cdiv(-(work.coeff(0) << mu), work.coeff(1));
}

}  // namespace

IsolationRun prepare_isolation(const Poly& p, const RootFinderConfig&) {
  check_arg(p.degree() >= 1, "RealRootFinder: degree must be >= 1");
  IsolationRun run;
  run.input_degree = p.degree();
  run.work = p.primitive_part();

  // Unlike the paper path -- where the remainder sequence detects repeated
  // roots as a side effect -- the Descartes isolator needs squarefreeness up
  // front (Descartes subdivision does not terminate otherwise), so test
  // with a gcd and reduce with that same gcd only when it is non-trivial.
  if (run.work.degree() >= 2) {
    const Poly g = poly_gcd(run.work, run.work.derivative());
    if (g.degree() > 0) {
      SquarefreeReduction sf = squarefree_reduce(run.work, g);
      run.factors = std::move(sf.factors);
      run.work = std::move(sf.part);
      run.reduced = true;
    }
  }
  run.bound_pow2 = root_bound_pow2(run.work);
  if (run.work.degree() >= 2) {
    run.isolation = isolate_roots(run.work);
  }
  return run;
}

BigInt cell_mu_approx(const Poly& stripped, const IsolatingCell& cell,
                      std::size_t mu, const QirConfig& config,
                      QirStats* stats) {
  if (cell.exact) {
    return cell.scale <= mu ? cell.lo << (mu - cell.scale)
                            : ceil_shift(cell.lo, cell.scale - mu);
  }
  return qir_solve(stripped, cell.lo, cell.hi, cell.s_lo, cell.s_hi,
                   cell.scale, mu, config, stats);
}

RootReport assemble_report(const IsolationRun& run,
                           const RootFinderConfig& config,
                           std::vector<BigInt> roots, const QirStats& qir) {
  RootReport report;
  report.mu = config.mu_bits;
  report.degree = run.input_degree;
  report.bound_pow2 = run.bound_pow2;
  std::sort(roots.begin(), roots.end());
  report.roots = std::move(roots);
  report.distinct_roots = static_cast<int>(report.roots.size());
  report.squarefree_reduced = run.reduced;
  report.used_sturm_fallback = false;
  if (run.reduced) {
    report.multiplicities = detail::assign_multiplicities(
        report.roots, config.mu_bits, run.factors);
  } else {
    report.multiplicities.assign(report.roots.size(), 1);
  }
  // QIR counters land in the closest IntervalStats fields so existing
  // reporting (service stats, CLI summaries) stays meaningful.
  std::uint64_t solved = 0;
  for (const auto& cell : run.isolation.cells) {
    if (!cell.exact) solved += 1;
  }
  report.stats.intervals_solved = solved;
  report.stats.newton_iters = qir.iters;
  report.stats.newton_evals = qir.evals;
  report.stats.fallback_bisects = qir.bisect_steps;
  if (config.validate) {
    detail::validate_roots(run.work, report.roots, config.mu_bits);
  }
  return report;
}

ParallelRunResult find_real_roots_radii_parallel(
    const Poly& p, const RootFinderConfig& config,
    const ParallelConfig& parallel) {
  check_arg(p.degree() >= 1, "find_real_roots_parallel: degree >= 1");
  ParallelRunResult out;
  IsolationRun run = prepare_isolation(p, config);

  if (run.work.degree() == 1) {
    out.report = assemble_report(
        run, config, {linear_root(run.work, config.mu_bits)}, {});
    out.isolated = std::move(run.work);
    out.used_sequential_fallback = true;
    return out;
  }

  // Isolation is inherently pre-parallel here (the cells are not known
  // until it finishes); the per-cell refinements are the parallel stage,
  // one kRefine task per cell writing its root positionally (the cells
  // are sorted, so `roots` ends up sorted).
  const auto& cells = run.isolation.cells;
  std::vector<BigInt> roots(cells.size());
  std::vector<QirStats> stats(cells.size());
  TaskGraph graph;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    graph.add(TaskKind::kRefine, static_cast<std::int32_t>(i), [&, i] {
      roots[i] = cell_mu_approx(run.isolation.stripped, cells[i],
                                config.mu_bits, config.isolate.qir, &stats[i]);
    });
  }

  QirStats totals;
  if (!cells.empty()) {
    graph.validate();
    TaskPool pool(parallel.num_threads);
    out.pool = pool.run(graph);
    out.trace = TaskTrace::from_graph(graph);
    for (const auto& st : stats) totals += st;
  }
  out.report = assemble_report(run, config, std::move(roots), totals);
  out.isolated = std::move(run.work);
  return out;
}

}  // namespace pr::isolate
