// The kRadii finder pipeline: squarefree reduction -> Descartes
// isolation over the root bound interval -> QIR refinement.
//
// Produces RootReports with the exact shape and values of the paper path
// (ceiling-convention mu-approximations, multiplicities from the
// squarefree decomposition), but without the all-real-roots requirement:
// complex roots simply never produce cells.  Refinement of the isolated
// cells is embarrassingly parallel: find_real_roots_radii_parallel runs
// one kRefine task per cell on its own TaskPool, so the trace/simulator
// machinery applies unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/root_finder.hpp"
#include "isolate/descartes_isolate.hpp"
#include "isolate/qir_refine.hpp"

namespace pr::isolate {

/// Everything the isolation stages produce before any refinement runs.
struct IsolationRun {
  int input_degree = 0;
  /// Primitive part of the input, squarefree-reduced when needed: the
  /// polynomial whose distinct real roots the cells isolate.
  Poly work;
  std::vector<SquarefreeFactor> factors;  ///< non-empty iff reduced
  bool reduced = false;
  std::size_t bound_pow2 = 0;
  /// The cells of `work`.  Left empty when work.degree() == 1 (callers
  /// solve the linear case exactly, as the paper path does).
  IsolationOutput isolation;
};

/// Runs the sequential isolation stages (reduction, Descartes).  No
/// setting of `config` applies to them; the QIR settings apply to
/// cell_mu_approx.
IsolationRun prepare_isolation(const Poly& p, const RootFinderConfig& config);

/// ceil(2^mu x) for the root x in `cell` (of the stripped polynomial).
/// Exact cells cost zero evaluations; isolated cells run QIR.
BigInt cell_mu_approx(const Poly& stripped, const IsolatingCell& cell,
                      std::size_t mu, const QirConfig& config,
                      QirStats* stats);

/// Assembles the final RootReport from refined roots (multiplicities,
/// stats mapping, optional Sturm validation: detail::validate_roots).
RootReport assemble_report(const IsolationRun& run,
                           const RootFinderConfig& config,
                           std::vector<BigInt> roots, const QirStats& qir);

/// The kRadii pipeline (find_real_roots_parallel dispatches here, and so
/// find_real_roots at one thread): sequential isolation, then the cell
/// refinements run on a TaskPool.  Bit-identical for every thread count.
ParallelRunResult find_real_roots_radii_parallel(
    const Poly& p, const RootFinderConfig& config,
    const ParallelConfig& parallel);

}  // namespace pr::isolate
