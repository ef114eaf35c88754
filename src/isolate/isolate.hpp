// The general-input pipeline: squarefree reduction -> Descartes
// isolation over the root bound interval -> QIR refinement.
//
// Produces RootReports with the exact shape and values of the paper path
// (ceiling-convention mu-approximations, multiplicities from the
// squarefree decomposition), but without the all-real-roots requirement:
// complex roots simply never produce cells.  It answers every kRadii
// solve, and every kPaper solve the interleaving tree rejects (a
// non-normal or non-real sequence): find_real_roots_parallel
// (core/parallel_driver.hpp) runs the stages below, refines the cells as
// one kRefine task per cell on its TaskPool, so the trace/simulator
// machinery applies unchanged, and assembles every report, the tree's
// included, with assemble_report.  refine_roots_parallel runs the same
// per-cell stage on the cells of a finished report.
#pragma once

#include <cstddef>
#include <vector>

#include "core/root_finder.hpp"
#include "isolate/descartes_isolate.hpp"
#include "isolate/qir_refine.hpp"

namespace pr::isolate {

/// What a solve knows before any root is refined: the polynomial whose
/// distinct real roots the report holds, its reduction and root bound,
/// and (on the general path) its cells.
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

  /// Replaces `work` by its squarefree part, given g = gcd(work, work')
  /// (squarefree_reduce), and keeps the factors for the multiplicities.
  void reduce(const Poly& g);
};

/// The sequential stages on run.work (primitive, degree >= 1): unless
/// run.reduced, a squarefreeness test by gcd(work, work') that reduces
/// with that gcd when it is non-constant; then the root bound and, for
/// degree >= 2, the Descartes cells.
void isolate_run(IsolationRun& run);

/// isolate_run on the primitive part of p.  No setting of `config`
/// applies to these stages; the QIR settings apply to cell_mu_approx.
IsolationRun prepare_isolation(const Poly& p, const RootFinderConfig& config);

/// ceil(2^mu x) for the root x of p in `cell`, whose endpoint signs refer
/// to p: the isolation's stripped polynomial on the general path, the
/// isolated polynomial in refine_roots_parallel.  Exact cells cost zero
/// evaluations; isolated cells run QIR.
BigInt cell_mu_approx(const Poly& p, const IsolatingCell& cell,
                      std::size_t mu, const QirConfig& config,
                      QirStats* stats);

/// QIR counters in the closest IntervalStats fields, so existing reporting
/// (service stats, CLI summaries) stays meaningful; intervals_solved
/// counts the non-exact cells.
IntervalStats qir_interval_stats(const std::vector<IsolatingCell>& cells,
                                 const QirStats& qir);

/// The RootReport of one root per distinct real root of run.work, for
/// both strategies: multiplicities from run.factors, `stats`, and the
/// optional Sturm validation (detail::validate_roots).
/// used_sturm_fallback is left for the caller to set.
RootReport assemble_report(const IsolationRun& run,
                           const RootFinderConfig& config,
                           std::vector<BigInt> roots,
                           const IntervalStats& stats);

/// The same with the QIR counters of run's cells (qir_interval_stats).
RootReport assemble_report(const IsolationRun& run,
                           const RootFinderConfig& config,
                           std::vector<BigInt> roots, const QirStats& qir);

}  // namespace pr::isolate
