#include "baseline/interval_ablations.hpp"

#include "instr/counters.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace pr {

const char* solver_mode_name(IntervalSolverConfig::Mode mode) {
  switch (mode) {
    case IntervalSolverConfig::Mode::kHybrid: return "hybrid";
    case IntervalSolverConfig::Mode::kBisectionNewton: return "bisect+newton";
    case IntervalSolverConfig::Mode::kPureBisection: return "pure-bisection";
  }
  return "?";
}

std::vector<AblationRun> compare_solver_modes(const Poly& p,
                                              std::size_t mu_bits) {
  const IntervalSolverConfig::Mode modes[] = {
      IntervalSolverConfig::Mode::kHybrid,
      IntervalSolverConfig::Mode::kBisectionNewton,
      IntervalSolverConfig::Mode::kPureBisection,
  };
  std::vector<AblationRun> out;
  std::vector<BigInt> reference;
  for (auto mode : modes) {
    RootFinderConfig cfg;
    cfg.mu_bits = mu_bits;
    cfg.solver.mode = mode;
    const auto before = instr::aggregate();
    Stopwatch sw;
    const RootReport report = find_real_roots(p, cfg);
    AblationRun run;
    run.mode = mode;
    run.wall_seconds = sw.seconds();
    run.stats = report.stats;
    const auto delta = instr::aggregate() - before;
    run.interval_bitcost = delta[instr::Phase::kSieve].bit_cost() +
                           delta[instr::Phase::kBisect].bit_cost() +
                           delta[instr::Phase::kNewton].bit_cost();
    if (reference.empty()) {
      reference = report.roots;
    } else {
      check_internal(reference == report.roots,
                     "ablation modes disagree on roots");
    }
    out.push_back(std::move(run));
  }
  return out;
}

}  // namespace pr
