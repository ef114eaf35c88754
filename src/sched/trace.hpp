// Execution traces: the bridge between a real TaskGraph execution and the
// discrete-event multiprocessor simulator.
//
// After TaskPool::run(), every task carries its deterministic bit-op cost.
// A TaskTrace snapshots the DAG shape plus those costs; the simulator then
// replays the paper's dynamic-scheduling policy under any processor count
// -- this is how the reproduction regenerates the Sequent Symmetry speedup
// experiments (Figures 9-13, Tables 3-12) on a single-core host.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sched/task_graph.hpp"

namespace pr {

struct TraceTask {
  std::uint64_t cost = 0;
  TaskKind kind = TaskKind::kGeneric;
  std::int32_t tag = -1;
  std::int32_t num_deps = 0;
  std::vector<TaskId> dependents;
};

struct TaskTrace {
  std::vector<TraceTask> tasks;

  static TaskTrace from_graph(const TaskGraph& graph);

  std::size_t size() const { return tasks.size(); }
  /// Total work (single-processor cost, excluding dispatch overhead).
  std::uint64_t total_cost() const;
  /// Critical-path cost: the infinite-processor lower bound.
  std::uint64_t critical_path(std::uint64_t per_task_overhead = 0) const;

  /// Per-kind cost histogram (kind name -> {tasks, cost}).
  std::string cost_breakdown() const;

  /// Line-oriented serialization (one task per line: cost kind tag deps...).
  void save(std::ostream& os) const;
  /// Parses a trace previously written by save().  Malformed input --
  /// truncated lines, negative dependency counts, out-of-range or
  /// self-referential dependent ids, or dependency counts inconsistent
  /// with the listed edges -- throws InvalidArgument naming the offending
  /// line.  Tasks and dependents are appended as they are read, so memory
  /// stays bounded by the input's length whatever counts it declares.
  static TaskTrace load(std::istream& is);

  /// Graphviz DOT rendering of the DAG (the paper's Fig. 3.2 dependency
  /// picture, concretely): nodes labeled kind/tag, sized by cost.  Keep to
  /// small traces -- the output has one line per task and per edge.
  void save_dot(std::ostream& os) const;
};

/// One task execution on one worker, in wall seconds relative to the start
/// of TaskPool::run()'s execution phase.
struct TimelineEntry {
  TaskId task = -1;
  std::int32_t worker = 0;
  double start = 0;
  double finish = 0;
};

/// Per-worker execution timeline of a real TaskPool run: which worker ran
/// which task, and when.  Together with the TaskTrace (deterministic
/// per-task bit costs) this lets the discrete-event simulator calibrate
/// its dispatch-overhead knob against *measured* scheduler overhead
/// instead of a guessed constant (see calibrated_dispatch_overhead in
/// sim/des.hpp), and lets benches render Gantt-style worker activity.
struct ExecutionTimeline {
  int workers = 0;
  /// Entries in completion order (the order workers finished tasks).
  std::vector<TimelineEntry> entries;

  /// Wall span covered by the entries (max finish; 0 when empty).
  double span() const;
  /// Sum of task durations across all workers.
  double busy_seconds() const;
  /// Sum of task durations attributed to one worker.
  double busy_seconds_for(int worker) const;

  /// Line-oriented serialization: a "workers entry-count" header, then
  /// one "task worker start finish" line per entry.  load() validates
  /// like TaskTrace::load, throws InvalidArgument with line context, and
  /// likewise appends entries as it reads them.
  void save(std::ostream& os) const;
  static ExecutionTimeline load(std::istream& is);
};

}  // namespace pr
