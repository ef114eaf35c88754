// RootService throughput bench: replaying a mixed request stream (>= 50%
// duplicate queries, the workload the service layer exists for) through
// run_batch at 1/2/4 threads, with the result cache on and off.
//
// The cache-off rows are the ablation baseline: every distinct line of a
// wave pays a cold tree run, so the on/off ratio is the memoization win
// at each thread count.
//
// The stream is replayed as a sequence of arrival waves (small batches),
// NOT one giant batch: in-batch dedup would collapse every duplicate
// inside a single run_batch call with or without the cache, hiding
// exactly the effect the ablation measures.  Across waves only the
// result cache carries answers.
//
// Writes a machine-readable BENCH_service.json (override with
// `--out <path>`); polys/sec counts REQUESTS served, not unique solves.
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "service/root_service.hpp"

namespace {

struct Row {
  int threads;
  bool cache;
  std::size_t requests;
  double wall;
  double polys_per_sec;
  std::uint64_t misses;
  std::uint64_t hits_full;
  std::uint64_t hits_derived;
  std::uint64_t hits_refined;
  std::uint64_t batch_dedup;
};

std::string out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) return argv[i + 1];
  }
  return prbench::canonical_out_path("BENCH_service.json");
}

/// The replayed stream: `uniques` distinct paper-style polynomials, each
/// repeated `reps` times, deterministically shuffled so duplicates are
/// interleaved with first sightings (the shape a shared service sees).
std::vector<std::string> make_workload(int n, int uniques, int reps) {
  std::vector<std::string> texts;
  texts.reserve(static_cast<std::size_t>(uniques));
  for (int u = 0; u < uniques; ++u) {
    texts.push_back(prbench::input_for(n, u).poly.to_string());
  }
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(uniques * reps));
  for (int r = 0; r < reps; ++r) {
    for (const auto& t : texts) lines.push_back(t);
  }
  pr::Prng rng(0xba7c4);
  for (std::size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.below(i)]);
  }
  return lines;
}

void write_json(const char* path, int n, int uniques, int digits,
                std::size_t requests, const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"service\",\n  \"profile\": \""
     << prbench::bench_profile_id() << "\",\n  \"n\": " << n
     << ",\n  \"unique_polys\": " << uniques
     << ",\n  \"requests\": " << requests
     << ",\n  \"mu_digits\": " << digits << ",\n  \"host_threads\": "
     << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n";
  os.precision(6);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"threads\": " << r.threads << ", \"cache\": "
       << (r.cache ? "true" : "false")
       << ", \"requests\": " << r.requests
       << ", \"wall_seconds\": " << r.wall
       << ", \"polys_per_sec\": " << r.polys_per_sec
       << ",\n     \"misses\": " << r.misses
       << ", \"hits_full\": " << r.hits_full
       << ", \"hits_derived\": " << r.hits_derived
       << ", \"hits_refined\": " << r.hits_refined
       << ", \"batch_dedup\": " << r.batch_dedup << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prbench;
  const bool full = has_flag(argc, argv, "--full");
  print_header("RootService: batched replay throughput, cache on/off",
               "service layer over Section 3 driver (not in the paper)");

  const int n = full ? 40 : 24;
  const int uniques = full ? 12 : 6;
  const int reps = 4;  // 75% duplicates
  const int digits = 16;
  const auto lines = make_workload(n, uniques, reps);

  std::cout << "degree " << n << ", " << uniques << " unique polys, "
            << lines.size() << " requests (" << (reps - 1) * 100 / reps
            << "% duplicates)\n\n"
            << "threads  cache  wall(s)    polys/s   misses  hits  dedup\n";

  std::vector<Row> rows;
  for (const int threads : {1, 2, 4}) {
    for (const bool cache : {true, false}) {
      pr::service::ServiceConfig cfg;
      cfg.finder.mu_bits = digits_to_bits(digits);
      cfg.parallel.num_threads = threads;
      cfg.cache_enabled = cache;
      pr::service::RootService service(cfg);

      const std::size_t wave = static_cast<std::size_t>(uniques);
      pr::Stopwatch sw;
      for (std::size_t start = 0; start < lines.size(); start += wave) {
        const auto end = std::min(start + wave, lines.size());
        const std::vector<std::string> chunk(
            lines.begin() + static_cast<std::ptrdiff_t>(start),
            lines.begin() + static_cast<std::ptrdiff_t>(end));
        const auto results = service.run_batch(chunk);
        for (const auto& r : results) {
          if (!r.ok) {
            std::cerr << "request failed: " << r.error << "\n";
            return 1;
          }
        }
      }
      const double wall = sw.seconds();
      const auto s = service.stats();
      Row row;
      row.threads = threads;
      row.cache = cache;
      row.requests = lines.size();
      row.wall = wall;
      row.polys_per_sec = static_cast<double>(lines.size()) / wall;
      row.misses = s.misses;
      row.hits_full = s.hits_full;
      row.hits_derived = s.hits_derived;
      row.hits_refined = s.hits_refined;
      row.batch_dedup = s.batch_dedup;
      rows.push_back(row);

      std::printf("%7d  %5s  %7.3f  %9.1f  %6llu  %4llu  %5llu\n", threads,
                  cache ? "on" : "off", wall, row.polys_per_sec,
                  static_cast<unsigned long long>(s.misses),
                  static_cast<unsigned long long>(s.hits_total()),
                  static_cast<unsigned long long>(s.batch_dedup));
    }
  }

  const std::string path = out_path(argc, argv);
  write_json(path.c_str(), n, uniques, digits, lines.size(), rows);
  std::cout << "\nwrote " << path << "\n";
  return 0;
}
