#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "bigint/bigint.hpp"
#include "instr/sched_stats.hpp"
#include "sched/task_graph.hpp"
#include "sched/task_pool.hpp"
#include "sched/trace.hpp"
#include "support/error.hpp"

namespace pr {
namespace {

TEST(TaskGraph, AddAndEdges) {
  TaskGraph g;
  const TaskId a = g.add(TaskKind::kGeneric, 1, {});
  const TaskId b = g.add(TaskKind::kGeneric, 2, {});
  g.add_edge(a, b);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.task(a).dependents, std::vector<TaskId>{b});
  EXPECT_EQ(g.task(b).num_deps, 1);
  EXPECT_EQ(g.initial_tasks(), std::vector<TaskId>{a});
  EXPECT_NO_THROW(g.validate());
}

TEST(TaskGraph, EdgeValidation) {
  TaskGraph g;
  const TaskId a = g.add(TaskKind::kGeneric, 0, {});
  EXPECT_THROW(g.add_edge(a, a), InvalidArgument);
  EXPECT_THROW(g.add_edge(a, 99), InvalidArgument);
  EXPECT_THROW(g.add_edge(-1, a), InvalidArgument);
}

TEST(TaskGraph, CycleDetection) {
  TaskGraph g;
  const TaskId a = g.add(TaskKind::kGeneric, 0, {});
  const TaskId b = g.add(TaskKind::kGeneric, 1, {});
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.validate(), InternalError);
}

TEST(TaskGraph, CriticalPathAndTotalCost) {
  // Diamond: a -> {b, c} -> d with costs 1, 10, 2, 5.
  TaskGraph g;
  const TaskId a = g.add(TaskKind::kGeneric, 0, {});
  const TaskId b = g.add(TaskKind::kGeneric, 1, {});
  const TaskId c = g.add(TaskKind::kGeneric, 2, {});
  const TaskId d = g.add(TaskKind::kGeneric, 3, {});
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.task(a).cost = 1;
  g.task(b).cost = 10;
  g.task(c).cost = 2;
  g.task(d).cost = 5;
  const TaskTrace tr = TaskTrace::from_graph(g);
  EXPECT_EQ(tr.total_cost(), 18u);
  EXPECT_EQ(tr.critical_path(), 16u);  // a + b + d
  EXPECT_EQ(tr.critical_path(1), 19u);
}

TEST(TaskPool, RunsEveryTaskOnce) {
  TaskGraph g;
  std::atomic<int> runs{0};
  std::vector<TaskId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(g.add(TaskKind::kGeneric, i, [&runs] { ++runs; }));
  }
  // Chain dependencies 0 -> 1 -> ... -> 49 plus cross edges.
  for (int i = 1; i < 50; ++i) g.add_edge(ids[i - 1], ids[i]);
  for (int i = 0; i + 10 < 50; i += 7) g.add_edge(ids[i], ids[i + 10]);
  TaskPool pool(1);
  const auto stats = pool.run(g);
  EXPECT_EQ(runs.load(), 50);
  EXPECT_EQ(stats.tasks_run, 50u);
}

TEST(TaskPool, RespectsDependencyOrder) {
  TaskGraph g;
  std::vector<int> order;
  std::mutex m;
  const TaskId a = g.add(TaskKind::kGeneric, 0, [&] {
    std::lock_guard<std::mutex> lock(m);
    order.push_back(0);
  });
  const TaskId b = g.add(TaskKind::kGeneric, 1, [&] {
    std::lock_guard<std::mutex> lock(m);
    order.push_back(1);
  });
  const TaskId c = g.add(TaskKind::kGeneric, 2, [&] {
    std::lock_guard<std::mutex> lock(m);
    order.push_back(2);
  });
  g.add_edge(a, b);
  g.add_edge(b, c);
  TaskPool pool(4);
  pool.run(g);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TaskPool, MultiThreadedStress) {
  // Wide fan-out/fan-in graph run with several threads; verify the sum.
  TaskGraph g;
  constexpr int kWidth = 200;
  std::vector<int> results(kWidth, 0);
  const TaskId src = g.add(TaskKind::kGeneric, -1, {});
  const TaskId sink = g.add(TaskKind::kGeneric, -2, {});
  for (int i = 0; i < kWidth; ++i) {
    const TaskId t = g.add(TaskKind::kGeneric, i, [&results, i] {
      results[static_cast<std::size_t>(i)] = i * i;
    });
    g.add_edge(src, t);
    g.add_edge(t, sink);
  }
  TaskPool pool(8);
  pool.run(g);
  long long sum = 0;
  for (int v : results) sum += v;
  EXPECT_EQ(sum, 200LL * 199 * 399 / 6);
}

TEST(TaskPool, RecordsBigIntCosts) {
  TaskGraph g;
  const TaskId cheap = g.add(TaskKind::kGeneric, 0, [] {
    (void)(BigInt(3) * BigInt(5));
  });
  const TaskId costly = g.add(TaskKind::kGeneric, 1, [] {
    (void)(BigInt::pow2(5000) * BigInt::pow2(5000));
  });
  TaskPool pool(1);
  pool.run(g);
  EXPECT_GT(g.task(costly).cost, g.task(cheap).cost);
  EXPECT_GT(g.task(costly).cost, 5000u * 5000u);
}

TEST(TaskPool, PropagatesExceptions) {
  TaskGraph g;
  g.add(TaskKind::kGeneric, 0, [] { throw InvalidArgument("boom"); });
  g.add(TaskKind::kGeneric, 1, {});
  TaskPool pool(2);
  EXPECT_THROW(pool.run(g), InvalidArgument);
}

TEST(TaskPool, RejectsZeroThreads) {
  EXPECT_THROW(TaskPool(0), InvalidArgument);
}

TEST(TaskPool, EmptyGraphReturnsImmediately) {
  TaskGraph g;
  TaskPool pool(4);
  const auto stats = pool.run(g);
  EXPECT_EQ(stats.tasks_run, 0u);
  EXPECT_TRUE(stats.timeline.entries.empty());
}

// Regression for the shutdown underflow: the old pool zeroed `remaining`
// (a size_t) from the error path while other tasks were still in flight;
// their completions then wrapped the counter past zero and shutdown relied
// on the error flag alone.  The rewrite only ever decrements per completed
// task, so a throwing task racing long-running tasks must shut down
// cleanly, every time.
TEST(TaskPool, ThrowingTaskRacingLongTasksShutsDownCleanly) {
  for (int round = 0; round < 8; ++round) {
    TaskGraph g;
    // Several slow tasks that are likely mid-flight when the bomb goes off.
    for (int i = 0; i < 6; ++i) {
      g.add(TaskKind::kGeneric, i, [] {
        (void)(BigInt::pow2(20000) * BigInt::pow2(20000));
      });
    }
    g.add(TaskKind::kGeneric, 99, [] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      throw InvalidArgument("boom");
    });
    // More work queued behind the slow tasks so shutdown must abandon a
    // non-empty queue.
    std::atomic<int> late{0};
    for (int i = 0; i < 32; ++i) {
      const TaskId a = g.add(TaskKind::kGeneric, i, [&late] { ++late; });
      g.add_edge(static_cast<TaskId>(i % 6), a);
    }
    TaskPool pool(4);
    EXPECT_THROW(pool.run(g), InvalidArgument) << "round " << round;
  }
}

TEST(TaskPool, FirstOfConcurrentExceptionsWins) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add(TaskKind::kGeneric, i, [] { throw InvalidArgument("boom"); });
  }
  TaskPool pool(4);
  EXPECT_THROW(pool.run(g), InvalidArgument);
}

// Lost-wakeup stress: waves of tiny tasks with full fan-in between waves,
// run with more threads than the host has cores.  Every wave boundary
// empties the queue and sends most workers into the condition-variable
// wait; the last task of a wave publishes the next one and must wake
// them.  Thousands of boundary crossings have to be driven purely by
// wakeups -- promptly and without losing a single task.
TEST(TaskPoolStress, TinyTaskWavesWithMoreThreadsThanCores) {
  constexpr int kThreads = 8;
  constexpr int kWaves = 150;
  TaskGraph g;
  std::atomic<int> runs{0};
  std::vector<TaskId> prev;
  for (int w = 0; w < kWaves; ++w) {
    std::vector<TaskId> wave;
    for (int i = 0; i < kThreads; ++i) {
      wave.push_back(g.add(TaskKind::kGeneric, w, [&runs] { ++runs; }));
    }
    for (TaskId p : prev) {
      for (TaskId t : wave) g.add_edge(p, t);
    }
    prev = std::move(wave);
  }
  TaskPool pool(kThreads);
  const auto stats = pool.run(g);
  EXPECT_EQ(runs.load(), kWaves * kThreads);
  EXPECT_EQ(stats.tasks_run, static_cast<std::size_t>(kWaves * kThreads));
  // A timed poll as the recovery path would stack missed wakeups up to a
  // wall time on the order of kWaves milliseconds; the condition-variable
  // protocol finishes far below that even on a loaded single-core host.
  EXPECT_LT(stats.wall_seconds, 0.001 * kWaves)
      << "wave boundaries appear to be paced by timed polling";
}

TEST(TaskPoolStress, CentralQueueTinyTaskChains) {
  // Long dependency chains of free tasks: one task is ready at a time, so
  // every other worker churns through the sleep/wake path.
  constexpr int kThreads = 8;
  TaskGraph g;
  std::atomic<int> runs{0};
  TaskId prev = g.add(TaskKind::kGeneric, 0, [&runs] { ++runs; });
  for (int i = 1; i < 2000; ++i) {
    const TaskId t = g.add(TaskKind::kGeneric, i, [&runs] { ++runs; });
    g.add_edge(prev, t);
    prev = t;
  }
  TaskPool pool(kThreads);
  const auto stats = pool.run(g);
  EXPECT_EQ(runs.load(), 2000);
  EXPECT_EQ(stats.tasks_run, 2000u);
}

TEST(TaskPoolStats, WorkerCountersAccountForEveryTask) {
  TaskGraph g;
  const TaskId src = g.add(TaskKind::kGeneric, -1, {});
  for (int i = 0; i < 100; ++i) {
    const TaskId t = g.add(TaskKind::kGeneric, i, [] {
      (void)(BigInt::pow2(5000) * BigInt::pow2(5000));
    });
    g.add_edge(src, t);
  }
  TaskPool pool(4);
  const auto stats = pool.run(g);
  ASSERT_EQ(stats.workers.size(), 4u);
  std::size_t tasks = 0;
  for (const auto& w : stats.workers) tasks += w.tasks;
  EXPECT_EQ(tasks, 101u);
  EXPECT_GT(stats.total_exec_seconds(), 0.0);
  EXPECT_GE(stats.wall_seconds, 0.0);
  // The queue must have been observed holding the full fan-out at least
  // once (all 100 children become ready when src completes).
  std::size_t high_water = 0;
  for (const auto& w : stats.workers) {
    high_water = std::max(high_water, w.queue_high_water);
  }
  EXPECT_GE(high_water, 100u);
}

// TaskPoolStats::steals survives only as the end-to-end benchmark's
// `sched.steals` metric; the central queue has nothing to steal from.
TEST(TaskPoolStats, StealsAreZeroUnderCentralQueue) {
  TaskGraph g;
  const TaskId src = g.add(TaskKind::kGeneric, -1, {});
  for (int i = 0; i < 32; ++i) {
    const TaskId t = g.add(TaskKind::kGeneric, i, [] {
      (void)(BigInt::pow2(10000) * BigInt::pow2(10000));
    });
    g.add_edge(src, t);
  }
  TaskPool pool(4);
  const auto stats = pool.run(g);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(TaskPoolStats, TimelineCoversEveryTaskOnce) {
  TaskGraph g;
  std::vector<TaskId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(g.add(TaskKind::kGeneric, i, [] {
      (void)(BigInt(7) * BigInt(9));
    }));
    if (i > 0) g.add_edge(ids[static_cast<std::size_t>(i - 1)], ids.back());
  }
  TaskPool pool(2);
  const auto stats = pool.run(g);
  ASSERT_EQ(stats.timeline.entries.size(), 40u);
  EXPECT_EQ(stats.timeline.workers, 2);
  std::vector<bool> seen(40, false);
  double prev_finish = 0;
  double span = 0;
  for (const auto& e : stats.timeline.entries) {
    ASSERT_GE(e.task, 0);
    ASSERT_LT(e.task, 40);
    EXPECT_FALSE(seen[static_cast<std::size_t>(e.task)]);
    seen[static_cast<std::size_t>(e.task)] = true;
    EXPECT_LE(e.start, e.finish);
    EXPECT_GE(e.finish, prev_finish);  // completion order
    prev_finish = e.finish;
    span = std::max(span, e.finish);
    EXPECT_GE(e.worker, 0);
    EXPECT_LT(e.worker, 2);
  }
  EXPECT_LE(span, stats.wall_seconds + 1e-3);
}

TEST(Trace, FromGraphAndBreakdown) {
  TaskGraph g;
  const TaskId a = g.add(TaskKind::kSort, 3, {});
  const TaskId b = g.add(TaskKind::kInterval, 3, {});
  g.add_edge(a, b);
  g.task(a).cost = 7;
  g.task(b).cost = 9;
  const TaskTrace tr = TaskTrace::from_graph(g);
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.total_cost(), 16u);
  EXPECT_EQ(tr.critical_path(), 16u);
  EXPECT_EQ(tr.tasks[0].kind, TaskKind::kSort);
  const std::string breakdown = tr.cost_breakdown();
  EXPECT_NE(breakdown.find("sort"), std::string::npos);
  EXPECT_NE(breakdown.find("interval"), std::string::npos);
}

TEST(Trace, SaveLoadRoundTrip) {
  TaskGraph g;
  const TaskId a = g.add(TaskKind::kCoeff, 2, {});
  const TaskId b = g.add(TaskKind::kQuotient, 4, {});
  const TaskId c = g.add(TaskKind::kIterMark, 4, {});
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, c);
  g.task(a).cost = 11;
  g.task(b).cost = 22;
  g.task(c).cost = 0;
  const TaskTrace tr = TaskTrace::from_graph(g);
  std::stringstream ss;
  tr.save(ss);
  const TaskTrace back = TaskTrace::load(ss);
  ASSERT_EQ(back.size(), tr.size());
  for (std::size_t i = 0; i < tr.size(); ++i) {
    EXPECT_EQ(back.tasks[i].cost, tr.tasks[i].cost);
    EXPECT_EQ(back.tasks[i].kind, tr.tasks[i].kind);
    EXPECT_EQ(back.tasks[i].tag, tr.tasks[i].tag);
    EXPECT_EQ(back.tasks[i].num_deps, tr.tasks[i].num_deps);
    EXPECT_EQ(back.tasks[i].dependents, tr.tasks[i].dependents);
  }
  EXPECT_EQ(back.total_cost(), 33u);
}

TEST(Trace, DotExportHasNodesAndEdges) {
  TaskGraph g;
  const TaskId a = g.add(TaskKind::kQuotient, 3, {});
  const TaskId b = g.add(TaskKind::kCoeff, 3, {});
  g.add_edge(a, b);
  g.task(a).cost = 5;
  const TaskTrace tr = TaskTrace::from_graph(g);
  std::stringstream ss;
  tr.save_dot(ss);
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("quotient 3"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
}

// Task-record format: "cost kind tag num_deps ndeps dep...".  Every load
// failure must be a pr::Error (InvalidArgument) carrying the offending
// line number, never a silently-corrupt trace or a crash in the DES.
TEST(Trace, LoadRejectsMalformedInput) {
  const auto rejects = [](const char* text, const char* what) {
    std::stringstream ss(text);
    try {
      (void)TaskTrace::load(ss);
      FAIL() << "accepted " << what << ": " << text;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << what << " error lacks line context: " << e.what();
    }
  };
  rejects("3\n1 0 0 0 0", "truncated input (3 declared, 1 present)");
  rejects("-1", "negative task count");
  rejects("1\n1 0 0 -2 0", "negative num_deps");
  rejects("1\n1 0 0 0 -1", "negative dependent count");
  rejects("2\n1 0 0 0 1 5\n1 0 0 1 0", "out-of-range dependent id");
  rejects("1\n1 0 0 0 1 0", "self-dependency");
  rejects("1\n1 99 0 0 0", "out-of-range task kind");
  rejects("1\n1 0 0 0", "truncated task record");
  rejects("1\n1 0 0 0 0 7", "trailing data on task record");
  // Declared counts are claims, not allocation sizes: both must fail as
  // truncated input instead of reserving memory for them.
  rejects("100000000000000\n1 0 0 0 0", "10^14 task count");
  rejects("2\n1 0 0 0 100000000000000 1\n1 0 0 1 0",
          "10^14 dependent count");
  {
    // In-degree/edge mismatches are only detectable once the whole file is
    // read; the error names the inconsistent task instead of a line.
    std::stringstream ss("2\n1 0 0 0 0\n1 0 0 1 0");
    EXPECT_THROW(TaskTrace::load(ss), InvalidArgument)
        << "declared in-degree with no matching edge";
    std::stringstream ss2("2\n1 0 0 0 1 1\n1 0 0 0 0");
    EXPECT_THROW(TaskTrace::load(ss2), InvalidArgument)
        << "edge into a task declaring zero deps";
  }
}

TEST(Trace, LoadAcceptsBlankAndPaddedLines) {
  std::stringstream ss("2\n\n  5 0 3 0 1 1  \n\n7 1 -1 1 0\n");
  const TaskTrace tr = TaskTrace::load(ss);
  ASSERT_EQ(tr.tasks.size(), 2u);
  EXPECT_EQ(tr.tasks[0].cost, 5u);
  EXPECT_EQ(tr.tasks[0].dependents, std::vector<TaskId>{1});
  EXPECT_EQ(tr.tasks[1].num_deps, 1);
  EXPECT_EQ(tr.tasks[1].tag, -1);
}

TEST(Trace, KindNamesAreStable) {
  EXPECT_STREQ(task_kind_name(TaskKind::kSeed), "seed");
  EXPECT_STREQ(task_kind_name(TaskKind::kMatEntry2), "matentry2");
  EXPECT_STREQ(task_kind_name(TaskKind::kRootsMark), "rootsmark");
}

}  // namespace
}  // namespace pr
