#include "sched/task_graph.hpp"

#include <utility>

#include "support/error.hpp"

namespace pr {

const char* task_kind_name(TaskKind k) {
  switch (k) {
    case TaskKind::kSeed: return "seed";
    case TaskKind::kQuotient: return "quotient";
    case TaskKind::kCoeff: return "coeff";
    case TaskKind::kMulOp: return "mulop";
    case TaskKind::kCombineOp: return "combineop";
    case TaskKind::kIterMark: return "itermark";
    case TaskKind::kMatEntry1: return "matentry1";
    case TaskKind::kMatEntry2: return "matentry2";
    case TaskKind::kSetPoly: return "setpoly";
    case TaskKind::kSort: return "sort";
    case TaskKind::kPreInterval: return "preinterval";
    case TaskKind::kInterval: return "interval";
    case TaskKind::kLinRoot: return "linroot";
    case TaskKind::kRootsMark: return "rootsmark";
    case TaskKind::kPrimeImage: return "primeimage";
    case TaskKind::kModPrep: return "modprep";
    case TaskKind::kModBlock: return "modblock";
    case TaskKind::kModCrt: return "modcrt";
    case TaskKind::kModPublish: return "modpublish";
    case TaskKind::kPieceSend: return "piecesend";
    case TaskKind::kPieceRecv: return "piecerecv";
    case TaskKind::kRefine: return "refine";
    case TaskKind::kGeneric: return "generic";
  }
  return "?";
}

TaskId TaskGraph::add(TaskKind kind, std::int32_t tag,
                      std::function<void()> fn) {
  Task t;
  t.fn = std::move(fn);
  t.kind = kind;
  t.tag = tag;
  tasks_.push_back(std::move(t));
  return static_cast<TaskId>(tasks_.size() - 1);
}

void TaskGraph::add_edge(TaskId from, TaskId to) {
  check_arg(from >= 0 && to >= 0 &&
                from < static_cast<TaskId>(tasks_.size()) &&
                to < static_cast<TaskId>(tasks_.size()) && from != to,
            "TaskGraph::add_edge: bad endpoints");
  tasks_[static_cast<std::size_t>(from)].dependents.push_back(to);
  tasks_[static_cast<std::size_t>(to)].num_deps += 1;
}

std::vector<TaskId> TaskGraph::initial_tasks() const {
  std::vector<TaskId> out;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].num_deps == 0) out.push_back(static_cast<TaskId>(i));
  }
  return out;
}

void TaskGraph::validate() const {
  // Kahn's algorithm; every task must be emitted exactly once.
  std::vector<std::int32_t> indeg(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) indeg[i] = tasks_[i].num_deps;
  std::vector<TaskId> queue = initial_tasks();
  std::size_t seen = 0;
  while (!queue.empty()) {
    const TaskId id = queue.back();
    queue.pop_back();
    ++seen;
    for (TaskId dep : tasks_[static_cast<std::size_t>(id)].dependents) {
      if (--indeg[static_cast<std::size_t>(dep)] == 0) queue.push_back(dep);
    }
  }
  check_internal(seen == tasks_.size(),
                 "TaskGraph::validate: cycle or disconnected dependency");
}

}  // namespace pr
