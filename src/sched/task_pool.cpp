#include "sched/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "instr/counters.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace pr {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Acquires `m`, attributing any blocking to the worker's lock-wait
/// counters.  The fast path (uncontended try_lock) costs no clock reads.
std::unique_lock<std::mutex> acquire(std::mutex& m,
                                     instr::WorkerCounters& wc) {
  std::unique_lock<std::mutex> lock(m, std::try_to_lock);
  if (!lock.owns_lock()) {
    const auto t0 = Clock::now();
    lock.lock();
    wc.lock_waits += 1;
    wc.lock_wait_seconds += seconds_between(t0, Clock::now());
  }
  return lock;
}

/// One run's state: the central task queue, lock-free dependency
/// counters, the completion countdown, error capture, and per-worker
/// observability.
struct PoolState {
  TaskGraph* graph = nullptr;
  Clock::time_point epoch;  ///< start of the execution phase

  /// Remaining-dependency counter per task.  Decremented lock-free by
  /// completing tasks; the worker whose decrement reaches zero owns the
  /// right (and duty) to publish that dependent.
  std::vector<std::atomic<std::int32_t>> pending;
  /// Tasks not yet successfully completed.  Decremented exactly once per
  /// task that ran to completion -- a task that throws never decrements,
  /// so the counter cannot underflow no matter how many tasks are in
  /// flight when an exception lands (the old implementation zeroed this
  /// from the error path and let in-flight completions wrap it around).
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::size_t> tasks_run{0};

  std::mutex error_mutex;
  std::exception_ptr error;  // first exception wins

  std::mutex mutex;  // guards ready, stop
  std::condition_variable cv;
  std::deque<TaskId> ready;  // the central task queue
  bool stop = false;

  std::vector<instr::WorkerCounters> wstats;
  std::vector<std::vector<TimelineEntry>> wtimeline;

  explicit PoolState(TaskGraph& g, int workers)
      : graph(&g), pending(g.size()), wstats(static_cast<std::size_t>(workers)),
        wtimeline(static_cast<std::size_t>(workers)) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      pending[i].store(g.task(static_cast<TaskId>(i)).num_deps,
                       std::memory_order_relaxed);
    }
    remaining.store(g.size(), std::memory_order_relaxed);
  }

  /// Runs one task, recording cost, time and timeline.  On success,
  /// collects the dependents that became ready into `batch` (cleared
  /// first) and returns true.  On exception, captures it and returns
  /// false; the caller must initiate shutdown.
  bool execute(int self, TaskId id, std::vector<TaskId>& batch) {
    auto& wc = wstats[static_cast<std::size_t>(self)];
    Task& t = graph->task(id);
    const auto start = Clock::now();
    const std::uint64_t before = instr::thread_bit_cost();
    try {
      if (t.fn) t.fn();
    } catch (...) {
      std::lock_guard<std::mutex> g(error_mutex);
      if (!error) error = std::current_exception();
      return false;
    }
    t.cost = instr::thread_bit_cost() - before;
    const auto finish = Clock::now();
    wc.exec_seconds += seconds_between(start, finish);
    wc.tasks += 1;
    wtimeline[static_cast<std::size_t>(self)].push_back(
        {id, self, seconds_between(epoch, start),
         seconds_between(epoch, finish)});
    tasks_run.fetch_add(1, std::memory_order_relaxed);

    batch.clear();
    for (TaskId dep : t.dependents) {
      // acq_rel: the zero-reaching decrement reads-from every earlier
      // decrement (a release sequence), so whichever worker later runs
      // the dependent sees all of its dependencies' writes once the
      // publication below hands it over under the queue lock.
      if (pending[static_cast<std::size_t>(dep)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        batch.push_back(dep);
      }
    }
    return true;
  }

  void worker(int self) {
    auto& wc = wstats[static_cast<std::size_t>(self)];
    std::vector<TaskId> batch;
    auto lock = acquire(mutex, wc);
    while (true) {
      if (ready.empty() && !stop) {
        const auto t0 = Clock::now();
        cv.wait(lock, [&] { return !ready.empty() || stop; });
        wc.idle_seconds += seconds_between(t0, Clock::now());
      }
      if (stop) return;  // all work done, or another worker errored
      const TaskId id = ready.front();
      ready.pop_front();
      lock.unlock();

      if (!execute(self, id, batch)) {
        lock = acquire(mutex, wc);
        stop = true;
        cv.notify_all();
        return;
      }
      const bool last =
          remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;

      // One lock acquisition publishes the whole batch; the worker keeps
      // the lock to pop its own next task at the loop top.
      lock = acquire(mutex, wc);
      if (!batch.empty()) {
        ready.insert(ready.end(), batch.begin(), batch.end());
        wc.queue_high_water = std::max(wc.queue_high_water, ready.size());
        if (batch.size() > 1) {
          cv.notify_all();  // this worker consumes one; wake the rest
        }
      }
      if (last) {
        stop = true;
        cv.notify_all();
        return;
      }
    }
  }
};

/// Merges per-worker timelines into completion order and fills the
/// per-worker counter vector.
void collect_stats(PoolState& state, int workers, TaskPoolStats& stats) {
  stats.tasks_run = state.tasks_run.load(std::memory_order_relaxed);
  stats.workers = std::move(state.wstats);
  stats.timeline.workers = workers;
  std::size_t total = 0;
  for (const auto& tl : state.wtimeline) total += tl.size();
  stats.timeline.entries.reserve(total);
  for (auto& tl : state.wtimeline) {
    stats.timeline.entries.insert(stats.timeline.entries.end(), tl.begin(),
                                  tl.end());
  }
  std::sort(stats.timeline.entries.begin(), stats.timeline.entries.end(),
            [](const TimelineEntry& a, const TimelineEntry& b) {
              return a.finish != b.finish ? a.finish < b.finish
                                          : a.task < b.task;
            });
}

}  // namespace

double TaskPoolStats::total_lock_wait_seconds() const {
  double s = 0;
  for (const auto& w : workers) s += w.lock_wait_seconds;
  return s;
}

double TaskPoolStats::total_idle_seconds() const {
  double s = 0;
  for (const auto& w : workers) s += w.idle_seconds;
  return s;
}

double TaskPoolStats::total_exec_seconds() const {
  double s = 0;
  for (const auto& w : workers) s += w.exec_seconds;
  return s;
}

TaskPool::TaskPool(int num_threads) : num_threads_(num_threads) {
  check_arg(num_threads >= 1, "TaskPool: need at least one thread");
}

TaskPoolStats TaskPool::run(TaskGraph& graph) {
  TaskPoolStats stats;
  stats.timeline.workers = num_threads_;
  if (graph.size() == 0) {
    stats.workers.resize(static_cast<std::size_t>(num_threads_));
    return stats;
  }

  // Setup (pending-counter array, initial seeding) is deliberately
  // excluded from wall_seconds: it is graph bookkeeping, not scheduling,
  // and the speedup benches compare scheduler execution time only.
  Stopwatch setup_sw;
  PoolState state(graph, num_threads_);
  for (TaskId id : graph.initial_tasks()) state.ready.push_back(id);
  state.wstats[0].queue_high_water = state.ready.size();
  stats.setup_seconds = setup_sw.seconds();

  Stopwatch exec_sw;
  state.epoch = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    threads.emplace_back([&state, i] { state.worker(i); });
  }
  state.worker(0);
  for (auto& th : threads) th.join();
  stats.wall_seconds = exec_sw.seconds();
  if (state.error) std::rethrow_exception(state.error);
  check_internal(state.tasks_run.load() == graph.size(),
                 "TaskPool: not every task ran");
  collect_stats(state, num_threads_, stats);
  return stats;
}

}  // namespace pr
