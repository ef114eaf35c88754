// tree-large: one caller, find_real_roots_parallel at P = 4, mu = 53,
// multimodular arithmetic on.  Large Jacobi and Berkowitz inputs plus
// inputs with a squared factor (squarefree path, sequential fallback).
#include "common.hpp"

namespace e2e {
namespace {

constexpr int kThreads = 4;
constexpr int kSets = 2;
constexpr int kCallsPerSet = 10;

const char* layer_of(pr::TaskKind k) {
  using K = pr::TaskKind;
  switch (k) {
    case K::kSeed: case K::kQuotient: case K::kCoeff: case K::kMulOp:
    case K::kCombineOp: case K::kIterMark:
      return "poly";
    case K::kPrimeImage: case K::kModPrep: case K::kModBlock:
    case K::kModCrt: case K::kModPublish:
      return "modular";
    case K::kMatEntry1: case K::kMatEntry2: case K::kSetPoly:
    case K::kPieceSend: case K::kPieceRecv:
      return "core_tree";
    case K::kSort: case K::kPreInterval: case K::kInterval:
    case K::kLinRoot: case K::kRootsMark:
      return "core_interval";
    case K::kRefine:
      return "isolate";
    default:
      return "other";
  }
}

struct SimCheck {
  double measured_s = 0, simulated_s = 0, avg_parallelism = 0;
  double critical_s = 0;
  bool done = false;
};

class TreeLarge final : public Workload {
 public:
  TreeLarge() {
    cfg_.mu_bits = 53;
    cfg_.modular.enabled = true;
    par_.num_threads = kThreads;
  }

  double nominal_round_seconds() const override { return 0.5; }
  /// A block calls every input of every set once.
  int round_block() const override { return kSets * kCallsPerSet; }

  void generate(Run& run) override {
    pr::Prng rng(run.args.seed * 0x9e3779b97f4a7c15ULL + 0x7ee1a);
    const auto add = [&](std::string name, std::string cls, pr::Poly p) {
      Input in;
      in.name = std::move(name);
      in.cls = std::move(cls);
      in.poly = std::move(p);
      in.mu = cfg_.mu_bits;
      return run.add_input(std::move(in));
    };
    // Two sets of kCallsPerSet inputs, called in turn, so a run's figures
    // rest on 10 Jacobi-96 draws rather than 5.  Per set: 2 small inputs,
    // 2 with repeated roots, 5 Jacobi-96 and the Jacobi-128.  Both sets
    // call one Jacobi-128: its exact reference (~19 s) sets the length of
    // a fresh seed's check, and a second draw would double it.
    // Sorted by latency (small < repeated < Jacobi-96 < Jacobi-128) over
    // 3 blocks, the median (rank 30 of 60) and the tail percentile (p83,
    // rank 50) both fall inside the Jacobi-96 class, 5 or more samples from
    // its edges: the class whose latency moves least with the seed.
    // Jacobi-128 (~40 % of the time) and the repeated-root inputs (~15 %;
    // their latency varies 300-560 ms with the seed) reach solves_per_s
    // only.
    int jacobi_128 = -1;
    for (int set = 0; set < kSets; ++set) {
      const std::string tag(1, static_cast<char>('A' + set));
      std::vector<int> order;
      order.push_back(add("berkowitz-64" + tag, "small", pr::paper_input(64, rng).poly));
      order.push_back(add("jacobi-64" + tag, "small", pr::random_jacobi_poly(64, 9, rng)));
      if (set == 0) warm_ = order.back();
      // Repeated roots (squarefree path, the parallel driver's sequential
      // fallback): a squared Jacobi factor times a second one, degree 56.
      for (int k = 0; k < 2; ++k) {
        const pr::Poly sq = pr::random_jacobi_poly(8, 9, rng);
        order.push_back(add("repeated-" + tag + std::to_string(k), "repeated",
                            sq * sq * pr::random_jacobi_poly(40, 9, rng)));
      }
      for (int k = 0; k < 5; ++k) {
        order.push_back(add("jacobi-96" + tag + std::to_string(k), "jacobi-96",
                            pr::random_jacobi_poly(96, 9, rng)));
      }
      if (jacobi_128 < 0) {
        jacobi_128 = add("jacobi-128", "jacobi-128", pr::random_jacobi_poly(128, 9, rng));
      }
      order.push_back(jacobi_128);
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      sets_.push_back(std::move(order));
    }
    per_input_ms_.assign(run.inputs.size(), {});
    sim_.assign(run.inputs.size(), {});
  }

  void warmup(Run& run) override {
    pr::find_real_roots_parallel(run.inputs[warm_].poly, cfg_, par_);
  }

  /// One call per round, so the host-speed probe runs between calls.
  double run_round(Run& run, int round, bool traced) override {
    const auto set = static_cast<std::size_t>((round / kCallsPerSet) % kSets);
    const int i = sets_[set][static_cast<std::size_t>(round % kCallsPerSet)];
    const Input& in = run.inputs[static_cast<std::size_t>(i)];
    const auto mc0 = pr::instr::modular_counts();
    const auto pc0 = pr::instr::aggregate();
    const std::int64_t req = static_cast<std::int64_t>(run.calls.size());
    ScopedSpan request(run.tracer, "request", -1, req, 0,
                       {{"workload", "tree-large"}, {"input", in.name},
                        {"mu", std::to_string(in.mu)}, {"strategy", "paper"}});
    pr::ParallelRunResult res;
    bool ok = true;
    const auto t0 = Clock::now();
    std::int64_t call = run.tracer.begin("find_real_roots_parallel",
                                         request.id(), req, 0);
    try {
      res = pr::find_real_roots_parallel(in.poly, cfg_, par_);
    } catch (const std::exception& e) {
      ok = false;
      run.note(std::string("call failed: ") + in.name + ": " + e.what());
    }
    run.tracer.end(call);
    const auto t1 = Clock::now();
    const double ms = seconds_between(t0, t1) * 1e3;
    run.calls.push_back({ms, in.cls, traced});
    if (!ok) {
      ++run.failed_calls;
      return ms / 1e3;
    }
    run.checks.push_back({i, report_digest(res.report)});
    per_input_ms_[static_cast<std::size_t>(i)].push_back(ms);
    if (traced) {
      // Pool timelines of the first traced block go into the span trace.
      record_call(run, i, res, call, req, t1, run.traced_rounds < round_block());
      record_bitcost(run, pr::instr::aggregate() - pc0);
      record_modular(run, mc0, pr::instr::modular_counts());
      add_layer(run, "modular.attempts", 1);
    }
    return ms / 1e3;
  }

  void extras(Run& run) override {
    double sum_seq = 0, sum_par = 0;
    // The first set holds every input class; the second only adds draws of
    // the same classes and would double a traced run past its time limit.
    for (int i : sets_[0]) {
      const Input& in = run.inputs[static_cast<std::size_t>(i)];
      const std::int64_t req = static_cast<std::int64_t>(run.calls.size()) + i;
      ScopedSpan request(run.tracer, "decomposition-request", -1, req, 0,
                         {{"input", in.name}, {"mu", std::to_string(in.mu)}});
      // The sequential driver on the same configuration: T_seq.
      auto t0 = Clock::now();
      pr::RootReport seq;
      {
        ScopedSpan s(run.tracer, "find_real_roots", request.id(), req, 0);
        seq = pr::find_real_roots(in.poly, cfg_);
      }
      const double seq_s = seconds_between(t0, Clock::now());
      run.checks.push_back({i, report_digest(seq)});
      // The parallel driver at one thread: the driver gap.
      pr::ParallelConfig p1 = par_;
      p1.num_threads = 1;
      t0 = Clock::now();
      {
        ScopedSpan s(run.tracer, "find_real_roots_parallel(P=1)",
                     request.id(), req, 0);
        run.checks.push_back(
            {i, report_digest(pr::find_real_roots_parallel(in.poly, cfg_, p1)
                                  .report)});
      }
      const double p1_s = seconds_between(t0, Clock::now());
      // The same steps one layer call at a time.
      const auto before = run.layer;
      t0 = Clock::now();
      pr::RootReport dec;
      {
        ScopedSpan s(run.tracer, "decomposition", request.id(), req, 0);
        dec = decompose_sequential(run, in.poly, cfg_, s.id(), req);
      }
      const double dec_s = seconds_between(t0, Clock::now());
      run.checks.push_back({i, report_digest(dec)});
      if (dec.roots != seq.roots || dec.multiplicities != seq.multiplicities) {
        ++run.failed_calls;
        run.note("decomposition differs from find_real_roots on " + in.name);
      }
      const auto delta = [&](const char* k) {
        const auto it = before.find(k);
        return run.layer[k] - (it == before.end() ? 0.0 : it->second);
      };
      const double prs = delta("modular.prs_s"), exact = delta("poly.remainder_s"),
                   sqf = delta("poly.squarefree_s"), tp = delta("core.tree_poly_s"),
                   nr = delta("core.node_roots_s"), mult = delta("core.multiplicity_s");
      const double layers = prs + exact + sqf + tp + nr + mult;
      add_layer(run, "core.sequential_driver_s", seq_s);
      add_layer(run, "core.parallel_p1_s", p1_s);
      add_layer(run, "core.unattributed_s", seq_s - layers);
      const double par_s = median(per_input_ms_[i]) / 1e3;
      sum_seq += seq_s;
      sum_par += par_s;
      char line[512];
      const SimCheck& sc = sim_[i];
      std::snprintf(
          line, sizeof line,
          "tree-large %-13s n=%3d  find_real_roots %.3fs  parallel P=1 %.3fs  "
          "P=4 %.3fs  speedup_vs_sequential %.2f  sim.makespan_ratio %s",
          in.name.c_str(), in.poly.degree(), seq_s, p1_s, par_s,
          par_s > 0 ? seq_s / par_s : 0.0,
          sc.done ? std::to_string(sc.measured_s / sc.simulated_s).c_str()
                  : "n/a (sequential fallback)");
      run.note(line);
      std::snprintf(
          line, sizeof line,
          "  decomposition %.3fs: modular.prs %.3f poly.remainder %.3f "
          "poly.squarefree %.3f core.tree_poly %.3f core.node_roots %.3f "
          "core.multiplicity %.3f; find_real_roots minus layers %.3fs",
          dec_s, prs, exact, sqf, tp, nr, mult, seq_s - layers);
      run.note(line);
    }
    run.layer["sched.speedup_vs_sequential"] = sum_par > 0 ? sum_seq / sum_par : 0;
    double meas = 0, simu = 0, crit = 0, avg = 0;
    int n = 0;
    for (const SimCheck& sc : sim_) {
      if (!sc.done) continue;
      meas += sc.measured_s;
      simu += sc.simulated_s;
      crit += sc.critical_s;
      avg += sc.avg_parallelism;
      ++n;
    }
    run.layer["sim.makespan_ratio"] = simu > 0 ? meas / simu : 0;
    run.layer["sim.critical_path_share"] = simu > 0 ? crit / simu : 0;
    run.layer["sim.avg_parallelism"] = n ? avg / n : 0;
  }

 private:
  void record_call(Run& run, int i, const pr::ParallelRunResult& res,
                   std::int64_t call_span, std::int64_t req,
                   Clock::time_point call_end, bool export_tasks) {
    const auto& pool = res.pool;
    const double exec = pool.total_exec_seconds();
    const double idle = pool.total_idle_seconds();
    const double lock = pool.total_lock_wait_seconds();
    add_layer(run, "sched.exec_s", exec);
    add_layer(run, "sched.idle_s", idle);
    add_layer(run, "sched.lock_wait_s", lock);
    add_layer(run, "sched.overhead_s",
              std::max(0.0, pool.workers.size() * pool.wall_seconds - exec -
                                idle - lock));
    add_layer(run, "sched.graph_setup_s", pool.setup_seconds);
    add_layer(run, "sched.tasks", static_cast<double>(pool.tasks_run));
    add_layer(run, "sched.steals", static_cast<double>(pool.steals));
    if (res.used_sequential_fallback) add_layer(run, "core.sequential_fallbacks", 1);
    record_interval_stats(run, res.report.stats);
    // Pool timeline entries joined with the trace's task kinds.  The
    // timeline's clock starts at the pool's execution phase, which ends
    // just before the call returns; anchor it there.
    const double origin = run.tracer.at(call_end) - pool.wall_seconds;
    for (const auto& e : pool.timeline.entries) {
      if (e.task < 0 || static_cast<std::size_t>(e.task) >= res.trace.size()) continue;
      const pr::TaskKind kind = res.trace.tasks[static_cast<std::size_t>(e.task)].kind;
      const char* layer = layer_of(kind);
      add_layer(run, std::string("sched.busy.") + layer, e.finish - e.start);
      if (export_tasks && run.tracer.enabled()) {
        Span s;
        s.name = pr::task_kind_name(kind);
        s.start = origin + e.start;
        s.end = origin + e.finish;
        s.parent = call_span;
        s.request = req;
        s.tid = 100 + e.worker;
        s.tags = {{"layer", layer}};
        run.tracer.add(std::move(s));
      }
    }
    SimCheck& sc = sim_[static_cast<std::size_t>(i)];
    if (!sc.done && !res.used_sequential_fallback && res.trace.size() > 0 &&
        exec > 0) {
      const std::uint64_t overhead =
          pr::calibrated_dispatch_overhead(res.trace, pool);
      pr::SimConfig simcfg;
      simcfg.processors = static_cast<int>(pool.workers.size());
      simcfg.dispatch_overhead = overhead;
      const pr::SimResult sr = pr::simulate_schedule(res.trace, simcfg);
      const double rate = static_cast<double>(res.trace.total_cost()) / exec;
      if (rate > 0 && sr.makespan > 0) {
        sc.done = true;
        sc.measured_s = pool.wall_seconds;
        sc.simulated_s = static_cast<double>(sr.makespan) / rate;
        sc.critical_s = static_cast<double>(res.trace.critical_path(overhead)) / rate;
        sc.avg_parallelism = pr::parallelism_profile(res.trace).average;
      }
    }
  }

  pr::RootFinderConfig cfg_;
  pr::ParallelConfig par_;
  int warm_ = 0;
  std::vector<std::vector<int>> sets_;  ///< input indices, in call order
  std::vector<std::vector<double>> per_input_ms_;
  std::vector<SimCheck> sim_;
};

}  // namespace

std::unique_ptr<Workload> make_tree_large() {
  return std::make_unique<TreeLarge>();
}

}  // namespace e2e
