#include "sched/trace.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "support/error.hpp"
#include "support/text.hpp"

namespace pr {

TaskTrace TaskTrace::from_graph(const TaskGraph& graph) {
  TaskTrace tr;
  tr.tasks.reserve(graph.size());
  for (const auto& t : graph.tasks()) {
    TraceTask tt;
    tt.cost = t.cost;
    tt.kind = t.kind;
    tt.tag = t.tag;
    tt.num_deps = t.num_deps;
    tt.dependents = t.dependents;
    tr.tasks.push_back(std::move(tt));
  }
  return tr;
}

std::uint64_t TaskTrace::total_cost() const {
  std::uint64_t sum = 0;
  for (const auto& t : tasks) sum += t.cost;
  return sum;
}

std::uint64_t TaskTrace::critical_path(std::uint64_t per_task_overhead) const {
  std::vector<std::uint64_t> dist(tasks.size(), 0);
  std::vector<std::int32_t> indeg(tasks.size());
  std::vector<TaskId> queue;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    indeg[i] = tasks[i].num_deps;
    if (indeg[i] == 0) queue.push_back(static_cast<TaskId>(i));
  }
  std::uint64_t best = 0;
  while (!queue.empty()) {
    const TaskId id = queue.back();
    queue.pop_back();
    const auto& t = tasks[static_cast<std::size_t>(id)];
    const std::uint64_t finish =
        dist[static_cast<std::size_t>(id)] + t.cost + per_task_overhead;
    best = std::max(best, finish);
    for (TaskId dep : t.dependents) {
      auto& d = dist[static_cast<std::size_t>(dep)];
      d = std::max(d, finish);
      if (--indeg[static_cast<std::size_t>(dep)] == 0) queue.push_back(dep);
    }
  }
  return best;
}

std::string TaskTrace::cost_breakdown() const {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t cost = 0;
  };
  std::map<std::string, Agg> by_kind;
  for (const auto& t : tasks) {
    auto& a = by_kind[task_kind_name(t.kind)];
    a.count += 1;
    a.cost += t.cost;
  }
  TextTable table({-12, 10, 18});
  std::ostringstream os;
  os << table.row({"kind", "tasks", "cost"}) << '\n' << table.rule() << '\n';
  for (const auto& [name, agg] : by_kind) {
    os << table.row({name, with_commas(agg.count), with_commas(agg.cost)})
       << '\n';
  }
  return os.str();
}

void TaskTrace::save(std::ostream& os) const {
  os << tasks.size() << '\n';
  for (const auto& t : tasks) {
    os << t.cost << ' ' << static_cast<int>(t.kind) << ' ' << t.tag << ' '
       << t.num_deps << ' ' << t.dependents.size();
    for (TaskId d : t.dependents) os << ' ' << d;
    os << '\n';
  }
}

void TaskTrace::save_dot(std::ostream& os) const {
  os << "digraph tasks {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& t = tasks[i];
    os << "  t" << i << " [label=\"" << task_kind_name(t.kind);
    if (t.tag >= 0) os << " " << t.tag;
    os << "\\n" << t.cost << "\"];\n";
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (TaskId d : tasks[i].dependents) {
      os << "  t" << i << " -> t" << d << ";\n";
    }
  }
  os << "}\n";
}

namespace {

/// Reads the next non-empty line or throws InvalidArgument.  `lineno` is
/// incremented for every physical line consumed so error messages can
/// point at the offending line of the file.
std::string next_line(std::istream& is, std::size_t& lineno,
                      const char* who) {
  std::string line;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") != std::string::npos) return line;
  }
  throw InvalidArgument(std::string(who) + ": truncated input after line " +
                        std::to_string(lineno));
}

[[noreturn]] void malformed(const char* who, std::size_t lineno,
                            const std::string& why) {
  throw InvalidArgument(std::string(who) + ": line " +
                        std::to_string(lineno) + ": " + why);
}

}  // namespace

TaskTrace TaskTrace::load(std::istream& is) {
  static constexpr const char* kWho = "TaskTrace::load";
  std::size_t lineno = 0;

  std::istringstream header(next_line(is, lineno, kWho));
  long long count = -1;
  if (!(header >> count) || count < 0) {
    malformed(kWho, lineno, "expected a nonnegative task count");
  }
  const auto n = static_cast<std::size_t>(count);

  // Append as we read: a header count is only a claim, and reserving it up
  // front would let a few bytes of input demand gigabytes.
  TaskTrace tr;
  for (std::size_t i = 0; i < n; ++i) {
    auto& t = tr.tasks.emplace_back();
    std::istringstream ls(next_line(is, lineno, kWho));
    int kind = 0;
    long long ndeps = -1;
    if (!(ls >> t.cost >> kind >> t.tag >> t.num_deps >> ndeps)) {
      malformed(kWho, lineno, "truncated task record (need cost kind tag "
                              "num_deps dependent-count)");
    }
    if (kind < 0 || kind > static_cast<int>(TaskKind::kGeneric)) {
      malformed(kWho, lineno, "unknown task kind " + std::to_string(kind));
    }
    t.kind = static_cast<TaskKind>(kind);
    if (t.num_deps < 0) {
      malformed(kWho, lineno,
                "negative dependency count " + std::to_string(t.num_deps));
    }
    if (ndeps < 0) {
      malformed(kWho, lineno,
                "negative dependent count " + std::to_string(ndeps));
    }
    for (long long k = 0; k < ndeps; ++k) {
      TaskId d = -1;
      if (!(ls >> d)) {
        malformed(kWho, lineno, "truncated dependent list");
      }
      if (d < 0 || static_cast<std::size_t>(d) >= n) {
        malformed(kWho, lineno,
                  "dependent id " + std::to_string(d) + " out of range [0, " +
                      std::to_string(n) + ")");
      }
      if (static_cast<std::size_t>(d) == i) {
        malformed(kWho, lineno, "task depends on itself");
      }
      t.dependents.push_back(d);
    }
    std::string rest;
    if (ls >> rest) {
      malformed(kWho, lineno, "trailing data '" + rest + "'");
    }
  }

  // Cross-check: the declared in-degrees must match the listed edges,
  // otherwise the trace would deadlock (or over-release) when replayed.
  std::vector<std::int32_t> indeg(n, 0);
  for (const auto& t : tr.tasks) {
    for (TaskId d : t.dependents) ++indeg[static_cast<std::size_t>(d)];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] != tr.tasks[i].num_deps) {
      throw InvalidArgument(
          std::string(kWho) + ": task " + std::to_string(i) + " declares " +
          std::to_string(tr.tasks[i].num_deps) + " dependencies but " +
          std::to_string(indeg[i]) + " edges point at it");
    }
  }
  return tr;
}

double ExecutionTimeline::span() const {
  double max_finish = 0;
  for (const auto& e : entries) max_finish = std::max(max_finish, e.finish);
  return max_finish;
}

double ExecutionTimeline::busy_seconds() const {
  double sum = 0;
  for (const auto& e : entries) sum += e.finish - e.start;
  return sum;
}

double ExecutionTimeline::busy_seconds_for(int worker) const {
  double sum = 0;
  for (const auto& e : entries) {
    if (e.worker == worker) sum += e.finish - e.start;
  }
  return sum;
}

void ExecutionTimeline::save(std::ostream& os) const {
  os << workers << ' ' << entries.size() << '\n';
  os.precision(9);
  for (const auto& e : entries) {
    os << e.task << ' ' << e.worker << ' ' << e.start << ' ' << e.finish
       << '\n';
  }
}

ExecutionTimeline ExecutionTimeline::load(std::istream& is) {
  static constexpr const char* kWho = "ExecutionTimeline::load";
  std::size_t lineno = 0;
  std::istringstream header(next_line(is, lineno, kWho));
  int workers = 0;
  long long count = -1;
  if (!(header >> workers >> count) || workers < 1 || count < 0) {
    malformed(kWho, lineno, "expected 'workers entry-count' header");
  }
  ExecutionTimeline tl;
  tl.workers = workers;
  for (long long i = 0; i < count; ++i) {
    auto& e = tl.entries.emplace_back();
    std::istringstream ls(next_line(is, lineno, kWho));
    if (!(ls >> e.task >> e.worker >> e.start >> e.finish)) {
      malformed(kWho, lineno, "truncated entry (need task worker start "
                              "finish)");
    }
    if (e.task < 0) malformed(kWho, lineno, "negative task id");
    if (e.worker < 0 || e.worker >= workers) {
      malformed(kWho, lineno,
                "worker " + std::to_string(e.worker) + " out of range");
    }
    if (e.finish < e.start) malformed(kWho, lineno, "finish before start");
  }
  return tl;
}

}  // namespace pr
