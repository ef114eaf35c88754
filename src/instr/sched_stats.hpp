// Scheduler observability: per-worker counters of a TaskPool execution.
//
// The paper attributes its 16-processor speedup collapse to task-queue
// overhead ("the granularity of the tasks was not fine enough to keep all
// processors busy").  To measure that overhead honestly -- rather than
// infer it from wall-clock differences -- every pool worker records how
// its time was spent: executing tasks, blocked acquiring the queue lock,
// or parked waiting for work.  The counters live here in the
// instrumentation layer next to the arithmetic counters (counters.hpp):
// together they are the full account of where a parallel run's cycles go.
//
// All counters are written by exactly one worker thread during the run and
// read only after TaskPool::run() returns; no synchronization is needed.
#pragma once

#include <cstddef>

namespace pr::instr {

/// How one pool worker spent the run.  Times are wall seconds.
struct WorkerCounters {
  std::size_t tasks = 0;        ///< tasks executed by this worker
  std::size_t lock_waits = 0;   ///< queue-lock acquisitions that blocked
  double lock_wait_seconds = 0; ///< total time blocked on the queue lock
  double idle_seconds = 0;      ///< total time parked waiting for work
  double exec_seconds = 0;      ///< total time inside task bodies
  std::size_t queue_high_water = 0;  ///< max depth of the central queue
                                     ///< this worker observed
};

}  // namespace pr::instr
