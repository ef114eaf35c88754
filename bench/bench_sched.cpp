// Scheduler observability bench: REAL multi-threaded execution of the
// task DAG (not the simulator) on the central queue across grain x thread
// count x grain chunk, with the per-worker counters of TaskPoolStats --
// wall clock, lock waits, parked-idle time and queue high-water.
//
// Writes a machine-readable BENCH_sched.json (override with
// `--out <path>`) so scheduler changes can be compared run-over-run.
// Note the counters are measured on whatever machine runs this binary;
// on a single-core host the >1-thread rows measure oversubscription,
// which is exactly where queue contention and wakeup latency show up.
#include <fstream>
#include <thread>

#include "bench_common.hpp"

namespace {

struct Row {
  const char* grain;
  int threads;
  int chunk;
  std::size_t tasks;
  double wall;
  double setup;
  std::size_t lock_waits;
  double lock_wait_s;
  double idle_s;
  double exec_s;
  std::size_t high_water;
  std::uint64_t calibrated_overhead;
};

std::string out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) return argv[i + 1];
  }
  return prbench::canonical_out_path("BENCH_sched.json");
}

void write_json(const char* path, int n, int digits,
                const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"sched\",\n  \"profile\": \""
     << prbench::bench_profile_id() << "\",\n  \"n\": " << n
     << ",\n  \"mu_digits\": " << digits << ",\n  \"host_threads\": "
     << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n";
  os.precision(6);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"grain\": \"" << r.grain
       << "\", \"threads\": " << r.threads << ", \"chunk\": " << r.chunk
       << ", \"tasks\": " << r.tasks << ",\n     \"wall_seconds\": " << r.wall
       << ", \"setup_seconds\": " << r.setup
       << ",\n     \"lock_waits\": " << r.lock_waits
       << ", \"lock_wait_seconds\": " << r.lock_wait_s
       << ", \"idle_seconds\": " << r.idle_s
       << ",\n     \"exec_seconds\": " << r.exec_s
       << ", \"queue_high_water\": " << r.high_water
       << ", \"calibrated_overhead\": " << r.calibrated_overhead << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prbench;
  const bool full = has_flag(argc, argv, "--full");
  print_header("Scheduler: real-execution thread/grain-chunk sweep",
               "Section 3 dynamic scheduling; Section 5.2 overheads");

  const int n = full ? 70 : 64;
  const int digits = 16;
  const auto input = input_for(n, 0);
  pr::RootFinderConfig cfg;
  cfg.mu_bits = digits_to_bits(digits);
  const int repeats = full ? 5 : 3;

  struct GrainCase {
    const char* name;
    pr::RemainderGrain grain;
  };
  const GrainCase grains[] = {
      {"per-coefficient", pr::RemainderGrain::kPerCoefficient},
      {"per-operation", pr::RemainderGrain::kPerOperation},
  };

  std::cout << "n = " << n << ", mu = " << digits
            << " digits, best of " << repeats
            << " runs per config.  lockw/idle/exec are\nsummed across "
               "workers; hw = queue-depth high water.\n";

  std::vector<Row> rows;
  std::vector<pr::BigInt> reference_roots;
  for (const auto& gc : grains) {
    std::cout << "\n--- grain: " << gc.name << " ---\n";
    pr::TextTable table({3, 3, 7, 9, 7, 9, 9, 5});
    std::cout << table.row({"P", "ck", "tasks", "wall ms", "lockw", "lock ms",
                            "idle ms", "hw"})
              << "\n"
              << table.rule() << "\n";
    for (int threads : {1, 2, 4}) {
      for (int chunk : {1, 4}) {
        pr::ParallelConfig par;
        par.grain = gc.grain;
        par.num_threads = threads;
        par.grain_chunk = chunk;
        pr::ParallelRunResult best;
        for (int rep = 0; rep < repeats; ++rep) {
          auto run = pr::find_real_roots_parallel(input.poly, cfg, par);
          if (run.used_sequential_fallback) {
            std::cerr << "unexpected fallback n=" << n << "\n";
            return 1;
          }
          if (rep == 0 || run.pool.wall_seconds < best.pool.wall_seconds) {
            best = std::move(run);
          }
        }
        if (reference_roots.empty()) {
          reference_roots = best.report.roots;
        } else if (best.report.roots != reference_roots) {
          std::cerr << "roots differ for P=" << threads << " chunk=" << chunk
                    << "\n";
          return 1;
        }
        const auto& st = best.pool;
        std::size_t lock_waits = 0, high_water = 0;
        for (const auto& w : st.workers) {
          lock_waits += w.lock_waits;
          high_water = std::max(high_water, w.queue_high_water);
        }
        rows.push_back({gc.name, threads, chunk, best.trace.size(),
                        st.wall_seconds, st.setup_seconds, lock_waits,
                        st.total_lock_wait_seconds(), st.total_idle_seconds(),
                        st.total_exec_seconds(), high_water,
                        pr::calibrated_dispatch_overhead(best.trace, st)});
        const Row& r = rows.back();
        std::cout << table.row({std::to_string(threads), std::to_string(chunk),
                                std::to_string(r.tasks),
                                pr::fixed(r.wall * 1e3, 2),
                                std::to_string(r.lock_waits),
                                pr::fixed(r.lock_wait_s * 1e3, 2),
                                pr::fixed(r.idle_s * 1e3, 2),
                                std::to_string(r.high_water)})
                  << "\n";
      }
    }
  }

  const std::string path = out_path(argc, argv);
  write_json(path.c_str(), n, digits, rows);
  std::cout << "\nwrote " << rows.size() << " rows to " << path << "\n"
            << "\nexpected: identical roots in every row; chunk = 4 shrinks "
               "the task count\nand the lock-wait totals at fine grain.\n";
  return 0;
}
