// The kRadii finder pipeline: squarefree reduction -> root-radii
// annuli -> band-restricted Descartes isolation -> QIR refinement.
//
// Produces RootReports with the exact shape and values of the paper path
// (ceiling-convention mu-approximations, multiplicities from the
// squarefree decomposition), but without the all-real-roots requirement:
// complex roots simply never produce cells.  Refinement of the isolated
// cells is embarrassingly parallel, exposed as kRefine TaskGraph tasks so
// the TaskPool and trace/simulator machinery apply unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/root_finder.hpp"
#include "isolate/descartes_isolate.hpp"
#include "isolate/qir_refine.hpp"
#include "sched/task_graph.hpp"

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
  /// Cells + radii + bands.  Left empty when work.degree() == 1 (callers
  /// solve the linear case exactly, as the paper path does).
  IsolationOutput isolation;
};

/// Runs the sequential isolation stages (reduction, radii, Descartes).
IsolationRun prepare_isolation(const Poly& p, const RootFinderConfig& config);

/// ceil(2^mu x) for the root x in `cell` (of the stripped polynomial).
/// Exact cells cost zero evaluations; isolated cells run QIR.
BigInt cell_mu_approx(const Poly& stripped, const IsolatingCell& cell,
                      std::size_t mu, const QirConfig& config,
                      QirStats* stats);

/// Stages one kRefine task per cell into `graph`.  `roots` and `stats`
/// must be pre-sized to the cell count and outlive the graph's execution;
/// entries are written positionally (cells are already sorted, so `roots`
/// ends up sorted).
void stage_cell_refinement(const IsolationRun& run,
                           const RootFinderConfig& config, TaskGraph& graph,
                           std::vector<BigInt>& roots,
                           std::vector<QirStats>& stats);

/// Assembles the final RootReport from refined roots (multiplicities,
/// stats mapping, optional Sturm validation).
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
