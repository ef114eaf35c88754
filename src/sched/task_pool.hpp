// Execution of a TaskGraph by worker threads -- the paper's dynamic
// scheduling paradigm (Section 3): one central FIFO queue shared by all
// workers under one lock; whenever a worker becomes free it picks the
// first task from the queue.  Contention is kept off that lock by
//
//  * batched ready-task publication -- a completing task decrements its
//    dependents' counters lock-free (the counters are atomic) and
//    publishes every task that became ready in ONE lock acquisition and
//    one bulk push, instead of taking the queue lock once per dependent;
//  * a condition-variable idle protocol -- a worker that finds the queue
//    empty waits on a condition variable under the queue lock and
//    re-checks the queue on every wakeup, so a concurrent push can never
//    be missed (no timed polling anywhere);
//  * per-worker observability -- every worker counts its tasks, blocking
//    lock acquisitions, idle time, execution time and the queue-depth
//    high-water mark, and records a per-task timeline that the
//    discrete-event simulator (src/sim/) uses to calibrate its
//    dispatch-overhead knob against measured reality.
//
// With num_threads == 1 the execution order is exactly the deterministic
// central-queue order, which is also the order the trace recorder
// captures for the discrete-event simulator.
//
// Every task's deterministic cost (bit operations, from the
// instrumentation layer) is stored into Task::cost as a side effect of
// execution.
#pragma once

#include <cstddef>
#include <vector>

#include "instr/sched_stats.hpp"
#include "sched/task_graph.hpp"
#include "sched/trace.hpp"

namespace pr {

struct TaskPoolStats {
  std::size_t tasks_run = 0;
  /// Wall time of the execution phase only: from just before the first
  /// worker starts until the last worker joined.  Graph bookkeeping
  /// (pending-counter array setup, initial-task seeding) is excluded and
  /// reported separately in setup_seconds.
  double wall_seconds = 0;
  /// Wall time spent preparing the run before any task executes.
  double setup_seconds = 0;
  /// Always 0: the central queue has no per-worker deque to steal from.
  /// Kept for the end-to-end benchmark's `sched.steals` metric.
  std::size_t steals = 0;
  /// One entry per worker (worker 0 is the calling thread).
  std::vector<instr::WorkerCounters> workers;
  /// Which worker ran which task, and when (seconds from the start of
  /// the execution phase).  Export to the trace layer / DES via
  /// calibrated_dispatch_overhead() (sim/des.hpp).
  ExecutionTimeline timeline;

  /// Convenience totals over `workers`.
  double total_lock_wait_seconds() const;
  double total_idle_seconds() const;
  double total_exec_seconds() const;
};

class TaskPool {
 public:
  /// num_threads >= 1.  The calling thread participates as worker 0, so
  /// num_threads == 1 runs everything inline (no thread is spawned).
  explicit TaskPool(int num_threads);

  /// Runs every task in the graph, respecting dependencies.  Returns after
  /// all tasks completed.  Exceptions thrown by tasks are captured and
  /// rethrown (first one wins) after the pool drains; in-flight tasks on
  /// other workers finish normally and are not counted as completed work
  /// beyond their own bookkeeping (no counter ever underflows).
  TaskPoolStats run(TaskGraph& graph);

  int num_threads() const { return num_threads_; }

 private:
  int num_threads_;
};

}  // namespace pr
