// A static task DAG with dynamic (dependency-counting) scheduling.
//
// This realizes the paper's parallel execution model (Section 3): the
// computation is divided into tasks held in a task queue; completing a task
// decrements the dependency counters of its dependents and enqueues those
// that become ready.  The graph is built up front (the paper's top-down
// RECURSE phase corresponds to graph construction), then executed by a
// TaskPool with any number of worker threads -- or replayed by the
// discrete-event simulator (src/sim/) under any number of *simulated*
// processors using the per-task costs recorded at execution time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pr {

/// Task kinds, mirroring the paper's task taxonomy (Fig. 3.2) plus the
/// remainder-phase tasks of Section 3.1.
enum class TaskKind : std::uint8_t {
  kSeed,         ///< compute F_1 = F_0'
  kQuotient,     ///< compute Q_i (Eqs. 15-17)
  kCoeff,        ///< compute one coefficient of F_{i+1} (Eq. 18)
  kMulOp,        ///< one multiplication of Eq. 18 (per-operation grain)
  kCombineOp,    ///< the subtraction+division of Eq. 18 (per-op grain)
  kIterMark,     ///< F_{i+1} complete (synchronization marker)
  kMatEntry1,    ///< one entry of W = U_k * T_left
  kMatEntry2,    ///< one entry of T_right * W (publish divides by c^2 c^2)
  kSetPoly,      ///< publish P_{i,j} (T marker / spine F copy / leaf U_i),
                 ///< or form U_k and c_k^2 c_{k-1}^2 for an exact combine
  kSort,         ///< merge children's sorted roots
  kPreInterval,  ///< analyze one interleaving point
  kInterval,     ///< solve one interval problem
  kLinRoot,      ///< exact root of a linear node polynomial
  kRootsMark,    ///< node roots complete (synchronization marker)
  kPrimeImage,   ///< per-prime PRS images (the held-out prime's too), or
                 ///< tree-table residues
  kModPrep,      ///< build the PRS basis / one step of the leading-pair
                 ///< chain, or set up / publish the tree residue table
                 ///< and basis
  kModBlock,     ///< retired combine-image block: no graph builds it;
                 ///< it keeps its slot, like kPieceSend below
  kModCrt,       ///< CRT: the rest of one PRS level, or one tree node's
                 ///< polynomial (three-term recurrence + one CRT)
  kModPublish,   ///< finalize a multimodular result (or fall back to
                 ///< exact), or free the tree table
  // Retired TreePiece boundary kinds: no graph builds them any more.
  // They keep their slots because TaskTrace::save writes kinds as
  // numbers (removing them would renumber kRefine and kGeneric in saved
  // traces) and because callers may still name them in switches.
  kPieceSend,
  kPieceRecv,
  kRefine,       ///< QIR on one isolating cell (the general path, and
                 ///< refine_roots_parallel for RootService's refined hits)
  kGeneric,
};

const char* task_kind_name(TaskKind k);

using TaskId = std::int32_t;

struct Task {
  std::function<void()> fn;       ///< the work (may be empty for markers)
  TaskKind kind = TaskKind::kGeneric;
  std::int32_t tag = -1;          ///< node index / iteration number
  std::vector<TaskId> dependents; ///< edges out
  std::int32_t num_deps = 0;      ///< edges in (static count)

  // Filled during execution:
  std::uint64_t cost = 0;         ///< deterministic bit-op cost of fn()
};

class TaskGraph {
 public:
  /// Adds a task; returns its id.  fn may be empty (pure marker).
  TaskId add(TaskKind kind, std::int32_t tag, std::function<void()> fn);

  /// Declares that `to` cannot start before `from` completes.
  void add_edge(TaskId from, TaskId to);

  std::size_t size() const { return tasks_.size(); }
  Task& task(TaskId id) { return tasks_[static_cast<std::size_t>(id)]; }
  const Task& task(TaskId id) const {
    return tasks_[static_cast<std::size_t>(id)];
  }
  std::vector<Task>& tasks() { return tasks_; }
  const std::vector<Task>& tasks() const { return tasks_; }

  /// All tasks with no incoming edges.
  std::vector<TaskId> initial_tasks() const;

  /// Verifies acyclicity and that every task is reachable; throws
  /// InternalError otherwise.  (Cheap; used by tests and the driver.)
  void validate() const;

 private:
  std::vector<Task> tasks_;
};

}  // namespace pr
