// Multimodular fast paths vs the exact BigInt pipeline.
//
// Measures, per input degree:
//   * prs:      the remainder-sequence stage alone: the exact serial
//               recurrence vs the multimodular stage 1 on the task graph
//               at 1/2/4 threads, timed from the start of a
//               find_real_roots_parallel run to the stage-1 publish task
//               (per-prime images, the leading-pair chain and one CRT task
//               per level);
//   * tree:     the tree-build stage alone over the same precomputed
//               sequence, one compute_node_poly call per node: exact
//               T_{i,j} combines vs the modular three-term recurrence
//               (one residue table and CRT basis per node); one row per
//               input, since these calls run on the caller's thread;
//   * stage:    prs + tree combined -- the part of the pipeline the
//               multimodular subsystem accelerates;
//   * pipeline: the full parallel root finder at equal thread counts with
//               the subsystem off vs on (the graph shares one table and
//               basis across the nodes);
//   * *-batch:  degree-128/256 ablation rows where both arms are modular
//               and only the batching of stage 1's image tasks differs
//               (the exact pipeline is too slow to serve as a baseline at
//               those degrees).  The tree stage, which batching does not
//               touch, is timed once and shared by both stage-batch arms.
//
// Every modular result is checked bit-identical against the exact one
// before its timing is reported.  Writes BENCH_modular.json at the repo
// root (override with --out <path>).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <limits>

#include "bench_common.hpp"
#include "core/tree_builder.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Row {
  const char* kind;
  std::string input;
  int n;
  int threads;
  double exact_seconds;
  double modular_seconds;
  double speedup() const { return exact_seconds / modular_seconds; }
};

double timed_best(int repeats, const std::function<void()>& body) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::string out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) return argv[i + 1];
  }
  return prbench::canonical_out_path("BENCH_modular.json");
}

bool sequences_equal(const pr::RemainderSequence& a,
                     const pr::RemainderSequence& b) {
  return a.n == b.n && a.nstar == b.nstar && a.F == b.F && a.Q == b.Q &&
         a.c == b.c;
}

/// Wall seconds from the start of a graph run until its multimodular
/// stage 1 published the sequence: the first kModPublish task to finish
/// (the tree table's release is the only other one, and waits for it).
double stage1_seconds(const pr::ParallelRunResult& run) {
  double done = std::numeric_limits<double>::infinity();
  for (const pr::TimelineEntry& e : run.pool.timeline.entries) {
    const pr::TraceTask& t = run.trace.tasks[static_cast<std::size_t>(e.task)];
    if (t.kind == pr::TaskKind::kModPublish && t.tag == -1) {
      done = std::min(done, e.finish);
    }
  }
  return done;
}

/// Best stage-1 span and best whole-run time over `repeats` graph runs,
/// plus the last run's report for the bit-identity check.
struct GraphTimes {
  double stage1 = 1e100;
  double pipeline = 1e100;
  pr::RootReport report;
  bool fell_back = false;
};

GraphTimes time_graph(int repeats, const pr::Poly& p,
                      const pr::RootFinderConfig& cfg,
                      const pr::ParallelConfig& par) {
  GraphTimes best;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    const auto run = pr::find_real_roots_parallel(p, cfg, par);
    const auto t1 = Clock::now();
    best.pipeline = std::min(
        best.pipeline, std::chrono::duration<double>(t1 - t0).count());
    best.stage1 = std::min(best.stage1, stage1_seconds(run));
    best.report = run.report;
    best.fell_back = run.used_sequential_fallback;
  }
  return best;
}

/// The tree-build stage in isolation: every P_{i,j} bottom-up in postorder,
/// one compute_node_poly layer call per node.
void build_tree_polys(const pr::Poly& p, const pr::RemainderSequence& rs,
                      const pr::modular::ModularConfig* modular) {
  pr::Tree tree(p.degree());
  for (int idx : tree.postorder()) {
    pr::compute_node_poly(tree, idx, rs, modular);
  }
}

void write_json(const char* path, const std::vector<Row>& rows,
                const pr::instr::ModularCounts& mc) {
  std::ofstream os(path);
  os.precision(6);
  os << "{\n  \"bench\": \"modular\",\n  \"profile\": \""
     << prbench::bench_profile_id() << "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"kind\": \"" << r.kind << "\", \"input\": \"" << r.input
       << "\", \"n\": " << r.n << ", \"threads\": " << r.threads
       << ",\n     \"exact_seconds\": " << r.exact_seconds
       << ", \"modular_seconds\": " << r.modular_seconds
       << ", \"speedup\": " << r.speedup() << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"modular_counters\": {\"primes_used\": " << mc.primes_used
     << ", \"images\": " << mc.images << ", \"bad_primes\": " << mc.bad_primes
     << ",\n    \"crt_values\": " << mc.crt_values
     << ", \"crt_limbs\": " << mc.crt_limbs
     << ", \"combines\": " << mc.combines
     << ", \"fallbacks\": " << mc.fallbacks << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prbench;
  const bool full = has_flag(argc, argv, "--full");
  print_header("Multimodular arithmetic: exact vs mod-p + CRT",
               "extension; Sections 3.1/3.2 cost centers");

  const int repeats = full ? 5 : 3;
  struct Input {
    std::string name;
    pr::Poly poly;
  };
  std::vector<Input> inputs;
  inputs.push_back({"berkowitz-64", input_for(64, 0).poly});
  {
    pr::Prng rng(0x5eedbeef);
    inputs.push_back({"jacobi-80", pr::random_jacobi_poly(80, 9, rng)});
    if (full) {
      inputs.push_back({"jacobi-96", pr::random_jacobi_poly(96, 9, rng)});
    }
  }

  const auto modular_cfg = [] {
    pr::modular::ModularConfig m;
    m.enabled = true;
    return m;
  };

  std::vector<Row> rows;
  pr::TextTable table({-8, -13, 3, 3, 10, 10, 7});
  std::cout << "best of " << repeats << " runs per cell\n\n"
            << table.row({"kind", "input", "n", "P", "exact ms", "mod ms",
                          "speedup"})
            << "\n"
            << table.rule() << "\n";
  const auto emit = [&](Row r) {
    rows.push_back(r);
    std::cout << table.row({r.kind, r.input, std::to_string(r.n),
                            std::to_string(r.threads),
                            pr::fixed(r.exact_seconds * 1e3, 2),
                            pr::fixed(r.modular_seconds * 1e3, 2),
                            pr::fixed(r.speedup(), 2)})
              << "\n";
  };

  for (const auto& in : inputs) {
    const int n = in.poly.degree();

    // --- isolated stages -------------------------------------------------
    const pr::RemainderSequence rs = pr::compute_remainder_sequence(in.poly);
    const double exact_prs = timed_best(
        repeats, [&] { pr::compute_remainder_sequence(in.poly); });
    const double exact_tree =
        timed_best(repeats, [&] { build_tree_polys(in.poly, rs, nullptr); });

    // The one-node tree calls have no thread knob: one tree row.
    const auto mcfg = modular_cfg();
    const double mod_tree = timed_best(
        repeats, [&] { build_tree_polys(in.poly, rs, &mcfg); });
    emit({"tree", in.name, n, 1, exact_tree, mod_tree});
    auto check =
        pr::modular::compute_remainder_sequence_multimodular(in.poly, mcfg);
    if (!check || !sequences_equal(*check, rs)) {
      std::cerr << "modular sequence mismatch for " << in.name << "\n";
      return 1;
    }
    pr::RootFinderConfig prs_cfg;
    prs_cfg.mu_bits = digits_to_bits(4);
    prs_cfg.modular = mcfg;
    for (int threads : {1, 2, 4}) {
      pr::ParallelConfig par;
      par.num_threads = threads;
      const double mod_prs = time_graph(repeats, in.poly, prs_cfg, par).stage1;
      emit({"prs", in.name, n, threads, exact_prs, mod_prs});
      emit({"stage", in.name, n, threads, exact_prs + exact_tree,
            mod_prs + mod_tree});
    }

    // --- full pipeline at equal thread counts ----------------------------
    pr::RootFinderConfig cfg;
    cfg.mu_bits = digits_to_bits(4);
    pr::RootFinderConfig cfg_mod = cfg;
    cfg_mod.modular = modular_cfg();

    for (int threads : {1, 2, 4}) {
      pr::ParallelConfig par;
      par.num_threads = threads;
      const auto ref = pr::find_real_roots_parallel(in.poly, cfg, par);
      const auto fast = pr::find_real_roots_parallel(in.poly, cfg_mod, par);
      if (ref.used_sequential_fallback || fast.used_sequential_fallback ||
          ref.report.roots != fast.report.roots) {
        std::cerr << "pipeline mismatch for " << in.name << " P=" << threads
                  << "\n";
        return 1;
      }
      const double exact_pipe = timed_best(repeats, [&] {
        pr::find_real_roots_parallel(in.poly, cfg, par);
      });
      const double mod_pipe = timed_best(repeats, [&] {
        pr::find_real_roots_parallel(in.poly, cfg_mod, par);
      });
      emit({"pipeline", in.name, n, threads, exact_pipe, mod_pipe});
    }
  }

  // --- image-batching ablation at large degree ----------------------------
  // Degrees 128/256.  The exact pipeline is unaffordable as a baseline
  // here; the "exact" column is the modular subsystem itself with one
  // task per image, so these rows isolate what image batching buys.  The
  // prs and pipeline columns come from the same graph runs (one per arm
  // for the huge input), and both arms' roots are checked identical.
  std::vector<Input> big;
  {
    pr::Prng rng(0x17a);
    big.push_back({"jacobi-128", pr::random_jacobi_poly(128, 9, rng)});
    big.push_back({"jacobi-256", pr::random_jacobi_poly(256, 9, rng)});
  }
  const int big_repeats = full ? 3 : 1;
  for (const auto& in : big) {
    const int n = in.poly.degree();
    const bool huge = n >= 200;  // single-run, P=4-only cells

    pr::RootFinderConfig pipe_old;
    pipe_old.mu_bits = digits_to_bits(4);
    pipe_old.modular = modular_cfg();
    pipe_old.modular.batch_images = false;
    pr::RootFinderConfig pipe_new = pipe_old;
    pipe_new.modular = modular_cfg();
    double tree = 0.0;  // shared by both stage-batch arms
    if (!huge) {
      const auto rs = pr::modular::compute_remainder_sequence_multimodular(
          in.poly, pipe_new.modular);
      if (!rs) {
        std::cerr << "ablation fell back to exact for " << in.name << "\n";
        return 1;
      }
      tree = timed_best(big_repeats, [&] {
        build_tree_polys(in.poly, *rs, &pipe_new.modular);
      });
    }

    for (int threads : {1, 4}) {
      if (huge && threads == 1) continue;
      pr::ParallelConfig par;
      par.num_threads = threads;
      const GraphTimes old_t = time_graph(big_repeats, in.poly, pipe_old, par);
      const GraphTimes new_t = time_graph(big_repeats, in.poly, pipe_new, par);
      if (old_t.fell_back || new_t.fell_back ||
          old_t.report.roots != new_t.report.roots) {
        std::cerr << "ablation pipeline mismatch for " << in.name
                  << " P=" << threads << "\n";
        return 1;
      }
      emit({"prs-batch", in.name, n, threads, old_t.stage1, new_t.stage1});
      if (!huge) {
        emit({"stage-batch", in.name, n, threads, old_t.stage1 + tree,
              new_t.stage1 + tree});
      }
      emit({"pipeline-batch", in.name, n, threads, old_t.pipeline,
            new_t.pipeline});
    }
  }

  // Volume counters for one representative run (largest input, serial).
  pr::instr::reset_modular();
  {
    const auto& in = inputs.back();
    const auto mcfg = modular_cfg();
    auto rs = pr::modular::compute_remainder_sequence_multimodular(in.poly,
                                                                   mcfg);
    if (rs) build_tree_polys(in.poly, *rs, &mcfg);
  }
  const auto mc = pr::instr::modular_counts();

  const std::string path = out_path(argc, argv);
  write_json(path.c_str(), rows, mc);
  std::cout << "\nwrote " << rows.size() << " rows to " << path << "\n"
            << "\nexpected: stage speedup >= 2x at every degree >= 64 and "
               "equal thread count;\nprs scales with threads: the images "
               "and the per-level CRT tasks fan out,\nonly the leading-pair "
               "chain is serial;\n"
               "bad_primes and fallbacks both 0 on these inputs.\n"
               "*-batch rows compare image batching off vs on (both arms "
               "modular); thread\ncolumns only separate on multi-core "
               "hosts.\n";
  return 0;
}
