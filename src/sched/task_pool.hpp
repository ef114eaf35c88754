// Execution of a TaskGraph by worker threads -- the paper's dynamic
// scheduling paradigm (Section 3).
//
// Two queueing policies are provided.  The central queue is the paper's
// design, kept as a faithful, selectable baseline: whenever a worker
// becomes free it picks the first task from the one shared FIFO queue.
// The work-stealing policy is the modern alternative for the scheduling
// ablation.  Both use the same contention-avoiding machinery:
//
//  * batched ready-task publication -- a completing task decrements its
//    dependents' counters lock-free (the counters are atomic) and
//    publishes every task that became ready in ONE lock acquisition and
//    one bulk push, instead of taking the queue lock once per dependent;
//  * a proper idle/wake protocol -- a worker that finds no work parks on
//    a condition variable under the idle mutex after re-checking the
//    publication counter it sampled before its last scan, so a concurrent
//    push can never be missed (no timed polling anywhere);
//  * per-worker observability -- every worker counts its tasks, steals,
//    blocking lock acquisitions, idle time, execution time and the
//    queue-depth high-water mark, and records a per-task timeline that
//    the discrete-event simulator (src/sim/) uses to calibrate its
//    dispatch-overhead knob against measured reality.
//
// With num_threads == 1 the execution order is exactly the deterministic
// "central queue" order, which is also the order the trace recorder
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
  /// Successful steals.  Policy-dependent by construction: meaningful
  /// only under PoolPolicy::kWorkStealing and always exactly 0 under the
  /// central queue, where no per-worker deque exists to steal from.
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

/// Queueing policy of the pool.
enum class PoolPolicy {
  /// One FIFO queue shared by all workers under one lock -- the paper's
  /// design ("a task queue ... whenever a processor becomes free, it picks
  /// the first task from the queue").
  kCentralQueue,
  /// Per-worker deques: a worker pushes ready tasks to its own deque,
  /// pops LIFO locally and steals FIFO from others when empty -- the
  /// modern alternative, included for the scheduling ablation.
  kWorkStealing,
};

class TaskPool {
 public:
  /// num_threads >= 1.  The calling thread participates as worker 0, so
  /// num_threads == 1 runs everything inline (no thread is spawned).
  explicit TaskPool(int num_threads,
                    PoolPolicy policy = PoolPolicy::kCentralQueue);

  /// Runs every task in the graph, respecting dependencies.  Returns after
  /// all tasks completed.  Exceptions thrown by tasks are captured and
  /// rethrown (first one wins) after the pool drains; in-flight tasks on
  /// other workers finish normally and are not counted as completed work
  /// beyond their own bookkeeping (no counter ever underflows).
  TaskPoolStats run(TaskGraph& graph);

  int num_threads() const { return num_threads_; }
  PoolPolicy policy() const { return policy_; }

 private:
  int num_threads_;
  PoolPolicy policy_;
};

}  // namespace pr
