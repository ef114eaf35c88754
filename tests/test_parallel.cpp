// The task-parallel driver (Section 3): determinism across thread counts
// and grains, DAG structure, and trace recording.
#include "core/parallel_driver.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baseline/sturm_finder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "layer_replay.hpp"
#include "sim/des.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

RootFinderConfig base_config(std::size_t mu) {
  RootFinderConfig cfg;
  cfg.mu_bits = mu;
  return cfg;
}

class GrainModes : public ::testing::TestWithParam<RemainderGrain> {};

TEST_P(GrainModes, MatchesSequentialBitForBit) {
  // Seed chosen so every generated charpoly is squarefree (small 0/1
  // matrices frequently have repeated eigenvalues, which would send the
  // squarefree part through a second graph run).
  Prng rng(99);
  for (int trial = 0; trial < 3; ++trial) {
    const auto input = paper_input(6 + 4 * trial, rng);
    const RootFinderConfig cfg = base_config(35);
    const auto ref = test::replay_layers(input.poly, cfg);
    ParallelConfig pc;
    pc.grain = GetParam();
    for (int threads : {1, 2, 4}) {
      pc.num_threads = threads;
      const auto par = find_real_roots_parallel(input.poly, cfg, pc);
      EXPECT_FALSE(par.used_sequential_fallback);
      test::expect_same_report(ref, par.report,
                               "threads=" + std::to_string(threads) +
                                   " n=" + std::to_string(input.poly.degree()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGrains, GrainModes,
    ::testing::Values(RemainderGrain::kPerIteration,
                      RemainderGrain::kPerCoefficient,
                      RemainderGrain::kPerOperation,
                      RemainderGrain::kSequential),
    [](const auto& param_info) {
      switch (param_info.param) {
        case RemainderGrain::kPerIteration: return "PerIteration";
        case RemainderGrain::kPerCoefficient: return "PerCoefficient";
        case RemainderGrain::kPerOperation: return "PerOperation";
        default: return "Sequential";
      }
    });

TEST(ParallelDriver, SequentialRemainderOption) {
  Prng rng(9);
  const auto input = paper_input(10, rng);
  const RootFinderConfig cfg = base_config(24);
  ParallelConfig pc;
  pc.grain = RemainderGrain::kSequential;
  pc.num_threads = 2;
  const auto par = find_real_roots_parallel(input.poly, cfg, pc);
  const auto seq = find_real_roots(input.poly, cfg);
  EXPECT_EQ(par.report.roots, seq.roots);
}

TEST(ParallelDriver, TraceHasPaperTaskKinds) {
  Prng rng(77);
  const auto input = paper_input(9, rng);
  const auto run =
      find_real_roots_parallel(input.poly, base_config(20), ParallelConfig{});
  std::map<TaskKind, int> kinds;
  for (const auto& t : run.trace.tasks) kinds[t.kind]++;
  EXPECT_GT(kinds[TaskKind::kQuotient], 0);
  EXPECT_GT(kinds[TaskKind::kCoeff], 0);
  EXPECT_GT(kinds[TaskKind::kMatEntry1], 0);
  EXPECT_GT(kinds[TaskKind::kMatEntry2], 0);
  EXPECT_GT(kinds[TaskKind::kSort], 0);
  EXPECT_GT(kinds[TaskKind::kPreInterval], 0);
  EXPECT_GT(kinds[TaskKind::kInterval], 0);
  EXPECT_GT(kinds[TaskKind::kLinRoot], 0);
  // Interval tasks: one per root per internal node.
  EXPECT_GE(kinds[TaskKind::kInterval], input.poly.degree());
}

TEST(ParallelDriver, TraceCostsCoverRealWork) {
  Prng rng(31);
  const auto input = paper_input(12, rng);
  const auto run =
      find_real_roots_parallel(input.poly, base_config(40), ParallelConfig{});
  EXPECT_GT(run.trace.total_cost(), 1000u);
  EXPECT_LT(run.trace.critical_path(), run.trace.total_cost());
}

TEST(ParallelDriver, TraceIsDeterministicAcrossThreadCounts) {
  Prng rng(55);
  const auto input = paper_input(8, rng);
  const RootFinderConfig cfg = base_config(30);
  ParallelConfig p1, p4;
  p1.num_threads = 1;
  p4.num_threads = 4;
  const auto run1 = find_real_roots_parallel(input.poly, cfg, p1);
  const auto run4 = find_real_roots_parallel(input.poly, cfg, p4);
  ASSERT_EQ(run1.trace.size(), run4.trace.size());
  for (std::size_t i = 0; i < run1.trace.size(); ++i) {
    EXPECT_EQ(run1.trace.tasks[i].cost, run4.trace.tasks[i].cost)
        << "task " << i << " cost depends on thread count";
  }
}

TEST(ParallelDriver, SimulatedSpeedupGrowsWithProcessors) {
  Prng rng(41);
  const auto input = paper_input(20, rng);
  const auto run =
      find_real_roots_parallel(input.poly, base_config(60), ParallelConfig{});
  const auto sp = simulate_speedups(run.trace, {1, 2, 4, 8});
  EXPECT_NEAR(sp[0], 1.0, 1e-9);
  EXPECT_GT(sp[1], 1.5);
  EXPECT_GT(sp[2], sp[1]);
  EXPECT_GE(sp[3], sp[2] * 0.99);
}

TEST(ParallelDriver, RepeatedRootsDelegateToSequential) {
  // Stage 1 finds the extended sequence; the squarefree part then runs on
  // the graph, so the trace describes that second run.
  const Poly p = poly_from_integer_roots({2, 2, 5});
  const auto run =
      find_real_roots_parallel(p, base_config(12), ParallelConfig{});
  EXPECT_FALSE(run.used_sequential_fallback);
  EXPECT_GT(run.trace.size(), 0u);
  EXPECT_TRUE(run.report.squarefree_reduced);
  ASSERT_EQ(run.report.roots.size(), 2u);
  EXPECT_EQ(run.report.multiplicities, (std::vector<unsigned>{2, 1}));
}

TEST(ParallelDriver, ComplexRootsDelegateToSequential) {
  const Poly p{1, 0, 0, 0, 1};  // x^4 + 1
  const auto run =
      find_real_roots_parallel(p, base_config(12), ParallelConfig{});
  EXPECT_TRUE(run.used_sequential_fallback);
  EXPECT_TRUE(run.report.roots.empty());
}

TEST(ParallelDriver, LinearInputDelegates) {
  const auto run =
      find_real_roots_parallel(Poly{-3, 2}, base_config(8), ParallelConfig{});
  EXPECT_TRUE(run.used_sequential_fallback);
  ASSERT_EQ(run.report.roots.size(), 1u);
}

TEST(ParallelDriver, WilkinsonParallel) {
  const RootFinderConfig cfg = base_config(16);
  ParallelConfig pc;
  pc.num_threads = 3;
  const auto run = find_real_roots_parallel(wilkinson(14), cfg, pc);
  ASSERT_EQ(run.report.roots.size(), 14u);
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ(run.report.roots[static_cast<std::size_t>(i)],
              BigInt(static_cast<long long>(i + 1)) << 16);
  }
}

TEST(ParallelDriver, InherentParallelismIsSubstantial) {
  Prng rng(99);
  const auto input = paper_input(18, rng);
  const auto run =
      find_real_roots_parallel(input.poly, base_config(53), ParallelConfig{});
  const auto prof = parallelism_profile(run.trace);
  EXPECT_GT(prof.average, 3.0) << "the DAG should expose real parallelism";
  EXPECT_GE(prof.peak, 8u);
  EXPECT_GT(prof.at_least[1], 0.3) << ">= 2 tasks most of the time";
}

// The determinism matrix: RootReports must be bit-identical across every
// {grain} x {thread count} x {grain chunk} combination, because each task
// is a pure function of its dependencies' outputs and chunking only
// changes how units are packed into scheduled tasks.
TEST(ParallelDriver, DeterministicAcrossThreadsAndChunks) {
  struct Workload {
    const char* name;
    Poly poly;
  };
  Prng rng(99);
  const std::vector<Workload> workloads = {
      {"wilkinson", wilkinson(12)},
      {"berkowitz", paper_input(10, rng).poly},
  };
  const RootFinderConfig cfg = base_config(24);
  for (const auto& w : workloads) {
    const auto ref = test::replay_layers(w.poly, cfg);
    for (RemainderGrain grain :
         {RemainderGrain::kPerCoefficient, RemainderGrain::kPerOperation}) {
      for (int threads : {1, 2, 8}) {
        for (int chunk : {1, 4}) {
          ParallelConfig pc;
          pc.grain = grain;
          pc.num_threads = threads;
          pc.grain_chunk = chunk;
          const auto run = find_real_roots_parallel(w.poly, cfg, pc);
          EXPECT_FALSE(run.used_sequential_fallback);
          test::expect_same_report(
              ref, run.report,
              std::string(w.name) + " grain=" +
                  std::to_string(static_cast<int>(grain)) +
                  " threads=" + std::to_string(threads) +
                  " chunk=" + std::to_string(chunk));
        }
      }
    }
  }
}

TEST(ParallelDriver, GrainChunkShrinksTraceKeepsRoots) {
  Prng rng(88);
  const auto input = paper_input(12, rng);
  const RootFinderConfig cfg = base_config(16);
  ParallelConfig fine, chunked;
  fine.grain = RemainderGrain::kPerOperation;
  chunked.grain = RemainderGrain::kPerOperation;
  chunked.grain_chunk = 4;
  const auto runf = find_real_roots_parallel(input.poly, cfg, fine);
  const auto runc = find_real_roots_parallel(input.poly, cfg, chunked);
  EXPECT_EQ(runf.report.roots, runc.report.roots);
  // Chunking fuses micro-tasks, so the DAG must get much smaller (the
  // tree-stage tasks are unaffected, so less than the full 4x) while
  // total recorded work stays comparable (same arithmetic, fewer tasks).
  EXPECT_LT(runc.trace.size() * 3, runf.trace.size() * 2);
  EXPECT_GT(runc.trace.total_cost() * 2, runf.trace.total_cost());
}

TEST(ParallelDriver, RejectsBadGrainChunk) {
  ParallelConfig pc;
  pc.grain_chunk = 0;
  EXPECT_THROW(
      find_real_roots_parallel(wilkinson(6), base_config(12), pc),
      InvalidArgument);
}

TEST(ParallelDriver, PoolStatsExposeTimelineAndCounters) {
  Prng rng(7);
  const auto input = paper_input(10, rng);
  ParallelConfig pc;
  pc.num_threads = 2;
  const auto run = find_real_roots_parallel(input.poly, base_config(30), pc);
  EXPECT_FALSE(run.used_sequential_fallback);
  EXPECT_EQ(run.pool.tasks_run, run.trace.size());
  EXPECT_EQ(run.pool.timeline.entries.size(), run.trace.size());
  ASSERT_EQ(run.pool.workers.size(), 2u);
  std::size_t worker_tasks = 0;
  for (const auto& w : run.pool.workers) worker_tasks += w.tasks;
  EXPECT_EQ(worker_tasks, run.pool.tasks_run);
  EXPECT_GT(run.pool.wall_seconds, 0.0);
  EXPECT_GE(run.pool.setup_seconds, 0.0);
}

TEST(ParallelDriver, PerOperationGrainHasMoreTasks) {
  Prng rng(88);
  const auto input = paper_input(12, rng);
  const RootFinderConfig cfg = base_config(16);
  ParallelConfig coarse, fine;
  coarse.grain = RemainderGrain::kPerIteration;
  fine.grain = RemainderGrain::kPerOperation;
  const auto runc = find_real_roots_parallel(input.poly, cfg, coarse);
  const auto runf = find_real_roots_parallel(input.poly, cfg, fine);
  EXPECT_GT(runf.trace.size(), runc.trace.size() + 100);
  EXPECT_EQ(runc.report.roots, runf.report.roots);
}

// Per-phase operation counts -- what the paper's Figs 2-7 read -- must
// not depend on the thread count: the graph does exactly the arithmetic of
// the layer replay, multimodular combine decisions included.
TEST(ParallelDriver, PerPhaseCountsMatchLayerReplay) {
  struct Case {
    const char* name;
    Poly poly;
    RootFinderConfig cfg;
  };
  Prng rng(1234);
  std::vector<Case> cases;
  cases.push_back({"exact berkowitz-24", paper_input(24, rng).poly,
                   base_config(53)});
  RootFinderConfig mod = base_config(53);
  mod.modular.enabled = true;
  cases.push_back({"modular berkowitz-64", paper_input(64, rng).poly, mod});

  const auto measure = [](const auto& solve) {
    instr::reset_all();
    solve();
    return std::make_pair(instr::aggregate(), instr::modular_counts());
  };
  for (const auto& c : cases) {
    const auto [want, want_mod] =
        measure([&] { (void)test::replay_layers(c.poly, c.cfg); });
    if (c.cfg.modular.enabled) {
      EXPECT_GT(want_mod.combines, 0u) << c.name;
    }
    std::vector<ParallelConfig> configs(3);
    configs[0].num_threads = 1;
    configs[1].num_threads = 2;
    configs[2].num_threads = 4;
    if (!c.cfg.modular.enabled) {
      // The paper's one-task stage 1 (it always runs the exact recurrence).
      configs.push_back(configs[1]);
      configs.back().grain = RemainderGrain::kSequential;
    }
    for (const ParallelConfig& pc : configs) {
      const auto [got, got_mod] = measure(
          [&] { (void)find_real_roots_parallel(c.poly, c.cfg, pc); });
      const std::string run =
          std::string(c.name) + " threads=" + std::to_string(pc.num_threads) +
          (pc.grain == RemainderGrain::kSequential ? " sequential stage 1"
                                                   : "");
      for (std::size_t ph = 0; ph < instr::kNumPhases; ++ph) {
        const auto& a = want.by_phase[ph];
        const auto& b = got.by_phase[ph];
        const std::string where =
            run + " phase=" + instr::phase_name(static_cast<instr::Phase>(ph));
        EXPECT_EQ(a.mul_count, b.mul_count) << where;
        EXPECT_EQ(a.div_count, b.div_count) << where;
        EXPECT_EQ(a.add_count, b.add_count) << where;
        EXPECT_EQ(a.mul_bits, b.mul_bits) << where;
        EXPECT_EQ(a.div_bits, b.div_bits) << where;
        EXPECT_EQ(a.add_bits, b.add_bits) << where;
      }
      EXPECT_EQ(want_mod.combines, got_mod.combines) << run;
    }
  }
}

// Inputs off the paper's path -- repeated roots, non-normal sequences,
// complex roots -- give the same full report through both entry points at
// any thread count, and the same as the layer replay.  The random draws
// have complex roots and normal sequences: stage 1 must reject each at the
// first leading coefficient whose sign differs from c_0, before a tree
// task reads that level, and the general-input path must answer, with the
// roots of the independent Sturm baseline.
TEST(ParallelDriver, FallbackInputsMatchAcrossEntryPoints) {
  struct Case {
    std::string name;
    Poly poly;
    RootFinderConfig cfg;
    bool squarefree = false;  // the Sturm baseline applies to it as is
  };
  const Poly c2 = Poly{1, 0, 1};
  RootFinderConfig validated = base_config(16);
  validated.validate = true;
  RootFinderConfig mod = base_config(53);
  mod.modular.enabled = true;
  Prng rng(5);
  const Poly sq = random_jacobi_poly(8, 9, rng);
  std::vector<Case> cases = {
      {"(x-1)^2 (x-2)^3 (x-5)", poly_from_integer_roots({1, 1, 2, 2, 2, 5}),
       validated},
      {"(x^2+1)^2 (x-1)", c2 * c2 * Poly{-1, 1}, base_config(24)},
      {"(x-2)^3 (x^2+3)", poly_from_integer_roots({2, 2, 2}) * Poly{3, 0, 1},
       base_config(12)},
      {"(x^2+1)(x^2-2)(x^2-x-1)",
       Poly{1, 0, 1} * Poly{-2, 0, 1} * Poly{-1, -1, 1}, base_config(40)},
      {"x^4+1", Poly{1, 0, 0, 0, 1}, base_config(16)},
      {"modular jacobi-8^2 x jacobi-40",
       sq * sq * random_jacobi_poly(40, 9, rng), mod},
  };
  // Non-real inputs answered by the fallback, validated: the cross-check
  // counts real roots only.
  RootFinderConfig validated53 = base_config(53);
  validated53.validate = true;
  RootFinderConfig validated_mod = validated53;
  validated_mod.modular.enabled = true;
  const std::vector<std::pair<std::string, Poly>> non_real = {
      {"x^3-2", Poly{-2, 0, 0, 1}},
      {"mignotte(9,5)", mignotte(9, 5)},
      {"x^5-4x+2", Poly{2, -4, 0, 0, 0, 1}},
  };
  for (const auto& [name, p] : non_real) {
    cases.push_back({"validated " + name, p, validated53, true});
    cases.push_back({"validated modular " + name, p, validated_mod, true});
  }
  Prng draws(7);
  for (int degree = 16; degree < 20; ++degree) {
    const Poly p = random_squarefree_poly(degree, 20, draws);
    const std::string name = "random-squarefree-" + std::to_string(degree);
    cases.push_back({name, p, base_config(53), true});
    cases.push_back({"modular " + name, p, mod, true});
  }
  for (const auto& c : cases) {
    const auto ref = test::replay_layers(c.poly, c.cfg);
    test::expect_same_report(ref, find_real_roots(c.poly, c.cfg), c.name);
    if (c.squarefree) {
      EXPECT_TRUE(ref.used_sturm_fallback) << c.name;
      EXPECT_EQ(ref.roots,
                sturm_find_roots(c.poly, c.cfg.mu_bits, c.cfg.solver, nullptr))
          << c.name;
    }
    for (int threads : {1, 2, 4}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      const auto run = find_real_roots_parallel(c.poly, c.cfg, pc);
      test::expect_same_report(
          ref, run.report, c.name + " threads=" + std::to_string(threads));
      // The flag marks exactly the solves no task graph answered: here
      // x^4 + 1, which has no real root for the general path to refine.
      EXPECT_EQ(run.used_sequential_fallback, run.trace.size() == 0)
          << c.name;
    }
  }
}

// kPaper's fallback is the general-input path kRadii runs: for an input
// the tree rejects, every report field equals kRadii's except
// used_sturm_fallback, whatever the thread count, stage-1 arithmetic or
// precision, and both isolate the same squarefree part.
TEST(ParallelDriver, GeneralInputsMatchAcrossStrategies) {
  std::vector<std::pair<std::string, Poly>> inputs = {
      {"x^3-2", Poly{-2, 0, 0, 1}},
      {"mignotte(9,5)", mignotte(9, 5)},
      {"x^5-4x+2", Poly{2, -4, 0, 0, 0, 1}},
      {"x^4+1", Poly{1, 0, 0, 0, 1}},
      {"(x^2+1)(x^2-2)(x^2-x-1)",
       Poly{1, 0, 1} * Poly{-2, 0, 1} * Poly{-1, -1, 1}},
      {"(x^2-2)^2 (x^2+1)", Poly{-2, 0, 1} * Poly{-2, 0, 1} * Poly{1, 0, 1}},
  };
  Prng draws(7);
  for (int degree = 16; degree < 24; ++degree) {
    inputs.emplace_back("random-squarefree-" + std::to_string(degree),
                        random_squarefree_poly(degree, 20, draws));
  }
  for (int n = 16; n <= 25; ++n) {
    const int a = 3 + (n - 16) % 7;
    inputs.emplace_back(
        "mignotte(" + std::to_string(n) + "," + std::to_string(a) + ")",
        mignotte(n, a));
  }
  for (const auto& [name, p] : inputs) {
    for (std::size_t mu : {53u, 256u}) {
      for (bool modular : {false, true}) {
        for (int threads : {1, 2, 4}) {
          const std::string where =
              name + " mu=" + std::to_string(mu) +
              (modular ? " modular" : "") + " P=" + std::to_string(threads);
          RootFinderConfig cfg = base_config(mu);
          cfg.modular.enabled = modular;
          ParallelConfig pc;
          pc.num_threads = threads;
          const auto paper = find_real_roots_parallel(p, cfg, pc);
          cfg.strategy = FinderStrategy::kRadii;
          const auto radii = find_real_roots_parallel(p, cfg, pc);
          EXPECT_TRUE(paper.report.used_sturm_fallback) << where;
          EXPECT_FALSE(radii.report.used_sturm_fallback) << where;
          RootReport want = radii.report;
          want.used_sturm_fallback = true;
          test::expect_same_report(want, paper.report, where);
          EXPECT_EQ(radii.isolated, paper.isolated) << where;
          EXPECT_EQ(radii.used_sequential_fallback,
                    paper.used_sequential_fallback)
              << where;
        }
      }
    }
  }
}

TEST(ParallelDriver, FallbackCanBeDisabledInBothEntryPoints) {
  const Poly p{1, 0, 0, 0, 1};
  RootFinderConfig cfg = base_config(10);
  cfg.allow_sturm_fallback = false;
  EXPECT_THROW(find_real_roots(p, cfg), NonNormalSequence);
  for (int threads : {1, 4}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    EXPECT_THROW(find_real_roots_parallel(p, cfg, pc), NonNormalSequence);
  }
}

// validate = true runs the Sturm cross-check wherever the graph finishes:
// it costs the same extra multiplications at four threads as at one.
TEST(ParallelDriver, ValidateRunsSturmCrossCheck) {
  Prng rng(777);
  const Poly p = paper_input(12, rng).poly;
  const auto mults = [&](bool validate, int threads) {
    RootFinderConfig cfg = base_config(40);
    cfg.validate = validate;
    ParallelConfig pc;
    pc.num_threads = threads;
    instr::reset_all();
    (void)find_real_roots_parallel(p, cfg, pc);
    return instr::aggregate().total().mul_count;
  };
  const auto extra_p1 = mults(true, 1) - mults(false, 1);
  const auto extra_p4 = mults(true, 4) - mults(false, 4);
  EXPECT_GT(extra_p4, 0u);
  EXPECT_EQ(extra_p4, extra_p1);

  RootFinderConfig cfg = base_config(40);
  instr::reset_all();
  (void)find_real_roots(p, cfg);
  const auto plain = instr::aggregate().total().mul_count;
  cfg.validate = true;
  instr::reset_all();
  (void)find_real_roots(p, cfg);
  EXPECT_EQ(instr::aggregate().total().mul_count - plain, extra_p4);
}

}  // namespace
}  // namespace pr
