#include "instr/sched_stats.hpp"

#include <algorithm>
#include <sstream>

#include "support/text.hpp"

namespace pr::instr {

namespace {

std::string fixed_ms(double seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << seconds * 1e3;
  return os.str();
}

}  // namespace

WorkerCounters& WorkerCounters::operator+=(const WorkerCounters& o) {
  tasks += o.tasks;
  steals += o.steals;
  lock_waits += o.lock_waits;
  lock_wait_seconds += o.lock_wait_seconds;
  idle_seconds += o.idle_seconds;
  exec_seconds += o.exec_seconds;
  queue_high_water = std::max(queue_high_water, o.queue_high_water);
  return *this;
}

WorkerCounters sum_workers(const std::vector<WorkerCounters>& workers) {
  WorkerCounters total;
  for (const auto& w : workers) total += w;
  return total;
}

std::string format_workers(const std::vector<WorkerCounters>& workers) {
  TextTable table({-6, 9, 8, 10, 12, 11, 11, 8});
  std::ostringstream os;
  os << table.row({"worker", "tasks", "steals", "lockwaits", "lockwait-ms",
                   "idle-ms", "exec-ms", "qmax"})
     << '\n'
     << table.rule() << '\n';
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const auto& w = workers[i];
    os << table.row({std::to_string(i), with_commas(w.tasks),
                     with_commas(w.steals), with_commas(w.lock_waits),
                     fixed_ms(w.lock_wait_seconds), fixed_ms(w.idle_seconds),
                     fixed_ms(w.exec_seconds),
                     with_commas(w.queue_high_water)})
       << '\n';
  }
  const WorkerCounters t = sum_workers(workers);
  os << table.rule() << '\n'
     << table.row({"total", with_commas(t.tasks), with_commas(t.steals),
                   with_commas(t.lock_waits), fixed_ms(t.lock_wait_seconds),
                   fixed_ms(t.idle_seconds), fixed_ms(t.exec_seconds),
                   with_commas(t.queue_high_water)})
     << '\n';
  return os.str();
}

}  // namespace pr::instr
