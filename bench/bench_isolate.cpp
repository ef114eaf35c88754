// Isolation-strategy bench: the paper pipeline vs the kRadii strategy
// (src/isolate/: Descartes isolation over the root bound interval, then QIR
// refinement) on the workloads each was built for, plus the QIR
// refinement's quadratic-convergence signature.
//
// Three sections:
//  * clustered squarefree inputs (all roots real, pathologically close):
//    both strategies apply, so the wall-time columns are directly
//    comparable at 1/2/4 threads.
//  * Mignotte polynomials (mostly complex roots): outside the paper
//    algorithm's domain, so the paper column is a stage-1 attempt plus
//    its fallback, which is the general-input path the radii column runs.
//  * QIR refinement ladder: refining the sqrt(2) cell (22/16, 23/16) to
//    growing precision, logging iterations/evaluations and the largest
//    subdivision exponent reached.  max_subdiv_log2 doubling per success
//    step while iteration counts stay O(log mu) is the observable
//    quadratic-convergence signature.
//
// Writes a machine-readable BENCH_isolate.json (override with
// `--out <path>`).
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "gen/hard_polys.hpp"
#include "isolate/qir_refine.hpp"

namespace {

struct Row {
  std::string workload;
  int n;
  int threads;
  double paper_wall;
  double radii_wall;
  bool paper_fallback;  ///< paper column took the fallback
  std::size_t real_roots;
};

struct QirRow {
  std::size_t mu_to;
  std::uint64_t iters;
  std::uint64_t evals;
  std::uint64_t successes;
  std::uint64_t failures;
  std::uint64_t max_subdiv_log2;
};

std::string out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) return argv[i + 1];
  }
  return prbench::canonical_out_path("BENCH_isolate.json");
}

double time_strategy(const pr::Poly& p, pr::FinderStrategy strategy,
                     int threads, std::size_t mu, bool* fell_back,
                     std::size_t* roots) {
  pr::RootFinderConfig cfg;
  cfg.mu_bits = mu;
  cfg.strategy = strategy;
  pr::ParallelConfig pcfg;
  pcfg.num_threads = threads;
  pr::Stopwatch sw;
  const auto report = threads > 1
                          ? pr::find_real_roots_parallel(p, cfg, pcfg).report
                          : pr::find_real_roots(p, cfg);
  const double wall = sw.seconds();
  if (fell_back) *fell_back = report.used_sturm_fallback;
  if (roots) *roots = report.roots.size();
  return wall;
}

void write_json(const char* path, std::size_t mu,
                const std::vector<Row>& rows,
                const std::vector<QirRow>& qir) {
  std::ofstream os(path);
  os.precision(6);
  os << "{\n  \"bench\": \"isolate\",\n  \"profile\": \""
     << prbench::bench_profile_id() << "\",\n  \"mu_bits\": " << mu
     << ",\n  \"host_threads\": " << std::thread::hardware_concurrency()
     << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"workload\": \"" << r.workload << "\", \"n\": " << r.n
       << ", \"threads\": " << r.threads
       << ", \"paper_wall_seconds\": " << r.paper_wall
       << ", \"radii_wall_seconds\": " << r.radii_wall
       << ",\n     \"paper_used_sturm_fallback\": "
       << (r.paper_fallback ? "true" : "false")
       << ", \"real_roots\": " << r.real_roots << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"qir_refine_sqrt2\": [\n";
  for (std::size_t i = 0; i < qir.size(); ++i) {
    const QirRow& q = qir[i];
    os << "    {\"mu_to\": " << q.mu_to << ", \"iters\": " << q.iters
       << ", \"evals\": " << q.evals << ", \"successes\": " << q.successes
       << ", \"failures\": " << q.failures
       << ", \"max_subdiv_log2\": " << q.max_subdiv_log2 << "}"
       << (i + 1 < qir.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prbench;
  const bool full = has_flag(argc, argv, "--full");
  print_header("Isolation strategies: paper pipeline vs Descartes + QIR",
               "isolate subsystem extension (not in the paper)");

  const std::size_t mu = digits_to_bits(16);
  const std::vector<int> clustered_n = full ? std::vector<int>{8, 12, 16}
                                            : std::vector<int>{8, 12};
  const std::vector<int> mignotte_n = full ? std::vector<int>{9, 13, 17}
                                           : std::vector<int>{9, 13};

  std::vector<Row> rows;
  std::cout << "workload     n  threads  paper(s)  radii(s)  fallback\n";
  auto run_case = [&](const std::string& name, const pr::Poly& p, int n) {
    for (const int threads : {1, 2, 4}) {
      Row r;
      r.workload = name;
      r.n = n;
      r.threads = threads;
      r.paper_wall = time_strategy(p, pr::FinderStrategy::kPaper, threads, mu,
                                   &r.paper_fallback, nullptr);
      r.radii_wall = time_strategy(p, pr::FinderStrategy::kRadii, threads, mu,
                                   nullptr, &r.real_roots);
      rows.push_back(r);
      std::printf("%-9s  %3d  %7d  %8.3f  %8.3f  %s\n", name.c_str(), n,
                  threads, r.paper_wall, r.radii_wall,
                  r.paper_fallback ? "yes" : "-");
    }
  };

  for (const int n : clustered_n) {
    pr::Prng rng(0x15014 + static_cast<std::uint64_t>(n));
    run_case("clustered", pr::clustered_squarefree(n, 24, 3, rng), n);
  }
  for (const int n : mignotte_n) {
    run_case("mignotte", pr::mignotte(n, 5), n);
  }

  // QIR convergence ladder: sqrt(2) from a 4-bit cell to growing
  // precisions.  Quadratic convergence shows up as max_subdiv_log2
  // roughly doubling with each extra precision doubling while the
  // iteration count grows only logarithmically.
  std::cout << "\nQIR refine of sqrt(2) from (22/16, 23/16):\n"
            << "   mu_to  iters  evals  success  fail  max_log2N\n";
  const pr::Poly sqrt2{-2, 0, 1};
  std::vector<QirRow> qir;
  for (const std::size_t mu_to : {64u, 256u, 1024u, 4096u}) {
    pr::isolate::QirStats stats;
    const pr::BigInt k = pr::isolate::qir_solve(
        sqrt2, pr::BigInt(22), pr::BigInt(23), -1, 1, 4, mu_to, {}, &stats);
    // Sanity: (k-1)^2 < 2*2^(2 mu_to) <= k^2.
    if (!((k - pr::BigInt(1)) * (k - pr::BigInt(1)) <
              (pr::BigInt(2) << (2 * mu_to)) &&
          (pr::BigInt(2) << (2 * mu_to)) <= k * k)) {
      std::cerr << "QIR refinement produced a wrong cell at mu=" << mu_to
                << "\n";
      return 1;
    }
    QirRow q{mu_to, stats.iters, stats.evals, stats.successes,
             stats.failures, stats.max_subdiv_log2};
    qir.push_back(q);
    std::printf("%8zu  %5llu  %5llu  %7llu  %4llu  %9llu\n", mu_to,
                static_cast<unsigned long long>(stats.iters),
                static_cast<unsigned long long>(stats.evals),
                static_cast<unsigned long long>(stats.successes),
                static_cast<unsigned long long>(stats.failures),
                static_cast<unsigned long long>(stats.max_subdiv_log2));
  }

  const std::string path = out_path(argc, argv);
  write_json(path.c_str(), mu, rows, qir);
  std::cout << "\nwrote " << path << "\n";
  return 0;
}
