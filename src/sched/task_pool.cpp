#include "sched/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
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

/// State shared by both policies: lock-free dependency counters, the
/// completion countdown, error capture, and per-worker observability.
struct SharedState {
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

  std::vector<instr::WorkerCounters> wstats;
  std::vector<std::vector<TimelineEntry>> wtimeline;

  explicit SharedState(TaskGraph& g, int workers)
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
      // publication below hands it over under a lock.
      if (pending[static_cast<std::size_t>(dep)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        batch.push_back(dep);
      }
    }
    return true;
  }

  /// True when this completion was the last one.
  bool count_completion() {
    return remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
};

/// The paper's central-queue policy: one shared FIFO under one lock.
/// Contention is kept off the lock by doing dependency accounting
/// lock-free and publishing each task's newly-ready dependents as one
/// bulk push (one lock acquisition per completed task, not one per
/// dependent).
struct CentralState : SharedState {
  std::mutex mutex;  // guards ready, stop
  std::condition_variable cv;
  std::deque<TaskId> ready;  // the central task queue
  bool stop = false;

  CentralState(TaskGraph& g, int workers) : SharedState(g, workers) {}

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
      const bool last = count_completion();

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

/// Work-stealing policy.  Each worker owns a deque under its own lock;
/// local pops are LIFO (depth-first, cache-friendly), steals take the
/// oldest task (closest to the critical path).  Idle workers park on a
/// condvar; the publication counter sampled before each scan makes the
/// park race-free (a push between the scan and the wait flips the wait
/// predicate), replacing the old 1 ms timed poll.
struct StealState : SharedState {
  struct Local {
    std::mutex mutex;
    std::deque<TaskId> deque;
  };
  std::vector<std::unique_ptr<Local>> local;

  std::mutex idle_mutex;
  std::condition_variable idle_cv;
  /// Bumped after every publication.  seq_cst pairs with idle_workers
  /// (see push_batch / park): either the publisher sees the parked
  /// worker and notifies, or the parked worker's predicate sees the
  /// bumped counter -- a lost wakeup would need both to miss.
  std::atomic<std::uint64_t> pushes{0};
  std::atomic<int> idle_workers{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> steals{0};

  StealState(TaskGraph& g, int workers) : SharedState(g, workers) {
    for (int i = 0; i < workers; ++i) {
      local.push_back(std::make_unique<Local>());
    }
  }

  bool try_pop_local(int self, TaskId& out, instr::WorkerCounters& wc) {
    auto& l = *local[static_cast<std::size_t>(self)];
    auto lock = acquire(l.mutex, wc);
    if (l.deque.empty()) return false;
    out = l.deque.back();  // LIFO
    l.deque.pop_back();
    return true;
  }

  bool try_steal(int self, TaskId& out, instr::WorkerCounters& wc) {
    const int n = static_cast<int>(local.size());
    for (int d = 1; d < n; ++d) {
      const int victim = (self + d) % n;
      auto& l = *local[static_cast<std::size_t>(victim)];
      auto lock = acquire(l.mutex, wc);
      if (!l.deque.empty()) {
        out = l.deque.front();  // FIFO steal
        l.deque.pop_front();
        lock.unlock();
        steals.fetch_add(1, std::memory_order_relaxed);
        wc.steals += 1;
        return true;
      }
    }
    return false;
  }

  /// Publishes a batch of ready tasks onto the publisher's own deque
  /// under one lock acquisition, then wakes parked workers if there are
  /// any.
  void push_batch(int self, const std::vector<TaskId>& batch,
                  instr::WorkerCounters& wc) {
    {
      auto& l = *local[static_cast<std::size_t>(self)];
      auto lock = acquire(l.mutex, wc);
      l.deque.insert(l.deque.end(), batch.begin(), batch.end());
      wc.queue_high_water = std::max(wc.queue_high_water, l.deque.size());
    }
    pushes.fetch_add(1, std::memory_order_seq_cst);
    if (idle_workers.load(std::memory_order_seq_cst) > 0) {
      // Notify under the idle mutex: a parker is either already waiting
      // (gets the notify) or has not yet evaluated its predicate (which
      // will observe the bumped `pushes`).
      std::lock_guard<std::mutex> g(idle_mutex);
      if (batch.size() > 1) {
        idle_cv.notify_all();
      } else {
        idle_cv.notify_one();
      }
    }
  }

  void request_stop() {
    stop.store(true, std::memory_order_seq_cst);
    std::lock_guard<std::mutex> g(idle_mutex);
    idle_cv.notify_all();
  }

  void worker(int self) {
    auto& wc = wstats[static_cast<std::size_t>(self)];
    std::vector<TaskId> batch;
    while (!stop.load(std::memory_order_acquire)) {
      // Sample the publication counter BEFORE scanning: any push that
      // lands after this line flips the park predicate below, so the
      // scan-then-park sequence cannot miss it.
      const std::uint64_t seen = pushes.load(std::memory_order_seq_cst);
      TaskId id;
      if (try_pop_local(self, id, wc) || try_steal(self, id, wc)) {
        if (!execute(self, id, batch)) {
          request_stop();
          return;
        }
        if (!batch.empty()) push_batch(self, batch, wc);
        if (count_completion()) {
          request_stop();
          return;
        }
        continue;
      }
      // Nothing anywhere: park until someone publishes or stops.
      auto lock = acquire(idle_mutex, wc);
      idle_workers.fetch_add(1, std::memory_order_seq_cst);
      const auto t0 = Clock::now();
      idle_cv.wait(lock, [&] {
        return pushes.load(std::memory_order_seq_cst) != seen ||
               stop.load(std::memory_order_seq_cst);
      });
      wc.idle_seconds += seconds_between(t0, Clock::now());
      idle_workers.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
};

/// Merges per-worker timelines into completion order and fills the
/// per-worker counter vector.
void collect_stats(SharedState& state, int workers, TaskPoolStats& stats) {
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

TaskPool::TaskPool(int num_threads, PoolPolicy policy)
    : num_threads_(num_threads), policy_(policy) {
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

  if (policy_ == PoolPolicy::kCentralQueue) {
    CentralState state(graph, num_threads_);
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
    // Policy-dependent field: the central queue has no per-worker deques,
    // so nothing can ever be stolen -- the count is exactly 0 here and
    // meaningful only under kWorkStealing.
    stats.steals = 0;
  } else {
    StealState state(graph, num_threads_);
    {
      // Initial tasks round-robin across the deques for initial balance.
      int w = 0;
      for (TaskId id : graph.initial_tasks()) {
        auto& l = *state.local[static_cast<std::size_t>(w)];
        l.deque.push_back(id);
        auto& hw = state.wstats[static_cast<std::size_t>(w)].queue_high_water;
        hw = std::max(hw, l.deque.size());
        w = (w + 1) % num_threads_;
      }
    }
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
    stats.steals = state.steals.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace pr
