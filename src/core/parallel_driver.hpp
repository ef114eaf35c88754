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
// find_real_roots_parallel wraps the graph with what lies outside the
// paper's path: the primitive part, the linear case, the squarefree
// reduction when stage 1 finds an extended sequence (the squarefree part
// then runs on the graph), the Sturm fallback for non-normal or non-real
// sequences, multiplicities, and RootFinderConfig::validate.
//
// Every call builds its own graph and runs it on its own pool; no other
// run shares either.  Results and per-phase operation counts are
// identical for every thread count and grain: each task is a pure
// function of its dependencies' outputs.
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
  /// Run stage 1 as a single sequential task (the paper's run-time option,
  /// Section 3: "the implementation allows this stage to be executed
  /// sequentially, if so desired").
  bool sequential_remainder = false;
};

struct ParallelRunResult {
  RootReport report;
  TaskTrace trace;          ///< replayable DAG with per-task costs
  TaskPoolStats pool;       ///< the execution that produced `trace`
  /// True when no task graph produced this report: a linear input or
  /// squarefree part, or the Sturm fallback.  `trace` is then empty.
  bool used_sequential_fallback = false;
};

/// Finds all real roots of p on parallel.num_threads workers.  Inputs
/// with repeated roots run their squarefree part on the graph (the trace
/// and pool stats describe that run); non-normal or non-real sequences
/// take the Sturm fallback.  find_real_roots() is this at one thread.
ParallelRunResult find_real_roots_parallel(const Poly& p,
                                           const RootFinderConfig& config,
                                           const ParallelConfig& parallel);

}  // namespace pr
