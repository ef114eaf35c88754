// The root-finding pipeline as one task graph (Section 3 of the paper).
//
// Builds one task graph covering both stages of the algorithm --
//   stage 1: the remainder/quotient sequence, parallelized across the
//            coefficient computations of Eq. (18) (Section 3.1), with a
//            configurable grain;
//   stage 2: the tree computations (Section 3.2): COMPUTEPOLY split into
//            two matrix products of four entry-tasks each, SORT,
//            PREINTERVAL (one task per interleaving point) and INTERVAL
//            (one task per root), with the dependency structure of
//            Fig. 3.2 --
// and executes it on a dynamic central-queue TaskPool with any number of
// worker threads; at one thread the pool runs it inline on the caller,
// which is all find_real_roots does.  The execution also records a
// TaskTrace with deterministic per-task costs, which the discrete-event
// simulator (src/sim/) replays under arbitrary simulated processor counts.
//
// find_real_roots_parallel is the one wrapper of both strategies; the
// strategy only decides whether the graph is tried first.  It owns what
// lies off the paper's path: the primitive part, the squarefree reduction
// when stage 1 finds an extended sequence (stage 1 hands over gcd(p, p')
// with it, so the reduction is one exact division plus Musser's loop, and
// the squarefree part then runs on the graph), and the general-input path
// (src/isolate/) for kRadii and for kPaper's non-normal or non-real
// sequences: a gcd test only when stage 1 did not reduce, so no solve
// computes gcd(p, p') twice, then Descartes isolation and one kRefine task
// per cell.  isolate::assemble_report then fills in every report: the
// linear case, multiplicities (detail::assign_multiplicities: cell-end
// signs, Sturm counts only where those do not decide) and
// RootFinderConfig::validate.
//
// refine_roots_parallel raises a finished report to a higher precision
// (RootService's refined hits): the stored cells go through the same
// kRefine stage, so outside the tree every cell is refined by QIR.
//
// Every call builds its own graph and runs it on its own pool; no other
// run shares either.  Results are identical for every thread count and
// grain: each task is a pure function of its dependencies' outputs.  So
// are the per-phase operation counts, with one exception: a solve with
// modular arithmetic off that stage 1 abandons -- repeated roots (F_{i+1}
// vanishes) or a non-real root (c_{i+1} changes sign) -- counts whatever
// tree and interval tasks started on the levels finished before that
// point, and how many did depends on the thread count (a degree-56
// repeated-root input counted 53,744 multiplications more than its
// squarefree part at P = 1, and 48,262 more at P = 4).  With modular
// arithmetic on, no tree task starts before stage 1 publishes.
#pragma once

#include "core/root_finder.hpp"
#include "sched/task_pool.hpp"
#include "sched/trace.hpp"

namespace pr {

/// Grain of the stage-1 (remainder sequence) parallelization.
enum class RemainderGrain {
  kPerIteration,    ///< one task computes Q_i and all of F_{i+1}
  kPerCoefficient,  ///< one task per coefficient of F_{i+1} (default)
  kPerOperation,    ///< one task per multiplication of Eq. 18 (the paper's
                    ///< finest grain: "each of these 5(n-i) operations")
  kSequential,      ///< one exact task for the whole stage, even with
                    ///< modular arithmetic on (the paper's run-time option,
                    ///< Section 3: "the implementation allows this stage
                    ///< to be executed sequentially, if so desired")
};

struct ParallelConfig {
  int num_threads = 1;
  RemainderGrain grain = RemainderGrain::kPerCoefficient;
  /// Grain coarsening: how many consecutive micro-units of the same kind
  /// are fused into one scheduled task (>= 1).  Applies to the
  /// fine-grained task families -- kCoeff coefficients, the kMulOp /
  /// kCombineOp operation tasks of the per-operation grain, and the
  /// kPreInterval point analyses -- trading scheduling overhead against
  /// available parallelism, the paper's Section 3.1/5.2 granularity
  /// knob made explicit.  Results are bit-identical for every value.
  int grain_chunk = 1;
};

struct ParallelRunResult {
  RootReport report;
  /// The polynomial whose distinct real roots report.roots isolates:
  /// primitive, squarefree, positive leading coefficient.  The primitive
  /// part of the input, or its squarefree part when the run reduced
  /// (report.squarefree_reduced).  It is what a refinement of report's
  /// cells sharpens, and both strategies fill it in.
  Poly isolated;
  TaskTrace trace;          ///< replayable DAG with per-task costs
  TaskPoolStats pool;       ///< the execution that produced `trace`
  /// True when no task graph produced this report: a linear input or
  /// squarefree part (one exact division), or a general-path input with
  /// no real root (no cell to refine).  `trace` is then empty.
  bool used_sequential_fallback = false;
};

/// Finds all real roots of p on parallel.num_threads workers.  Under
/// kPaper, inputs with repeated roots run their squarefree part on the
/// graph (the trace and pool stats describe that run), and non-normal or
/// non-real sequences take the general-input path; under kRadii every
/// input takes it (the trace and pool stats then describe the kRefine
/// tasks).  find_real_roots() is this at one thread.
ParallelRunResult find_real_roots_parallel(const Poly& p,
                                           const RootFinderConfig& config,
                                           const ParallelConfig& parallel);

/// Raises `stored` to config.mu_bits without rerunning either stage.  Each
/// stored value k names the cell ((k-1)/2^mu, k/2^mu], mu = stored.mu, of
/// one root of `isolated` (the ParallelRunResult::isolated of the run that
/// produced `stored`): an exact cell when that root is k/2^mu, otherwise
/// an open one, and every cell is one kRefine task of the general path's
/// QIR stage on parallel.num_threads workers.  A linear `isolated` is one
/// exact division instead.  The report keeps every field of `stored` but
/// roots, mu and stats (the QIR counters, as on the general path), and
/// config.validate applies.  Throws InvalidArgument when config.mu_bits
/// is below stored.mu, when two stored roots share a cell, or when a cell
/// holds no single root of `isolated`.
ParallelRunResult refine_roots_parallel(const Poly& isolated,
                                        const RootReport& stored,
                                        const RootFinderConfig& config,
                                        const ParallelConfig& parallel);

}  // namespace pr
