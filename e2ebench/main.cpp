// End-to-end benchmark driver: set-up, the timed closed loop, the
// post-run correctness check against reference reports, and the traced
// layer attribution.  Prints human-readable lines and, last, one
// "RESULT {json}" line that run.py turns into the benchmark's output.
//
//   e2e_bench --workload tree-large|interval-highmu|service-mixed
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--oracle FILE] [--mode run|setup|inputs|oracle]
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "calibrate/calibrate.hpp"
#include "common.hpp"
#include "modular/simd/simd.hpp"

namespace e2e {
namespace {

constexpr int kRefThreads = 4;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--mode") a.mode = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--oracle") a.oracle_path = v;
    else usage("unknown option " + k);
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "tree-large") return make_tree_large();
  if (name == "interval-highmu") return make_interval_highmu();
  if (name == "service-mixed") return make_service_mixed();
  usage("unknown workload " + name);
}

/// "workload seed key digest" lines -> key -> digest.
std::map<std::string, std::string> load_refs(const std::string& path,
                                             const Args& a) {
  std::map<std::string, std::string> out;
  std::ifstream is(path);
  std::string w, key, digest;
  std::uint64_t seed = 0;
  while (is >> w >> seed >> key >> digest) {
    if (w == a.workload && seed == a.seed) out[key] = digest;
  }
  return out;
}

/// The reference for one request: the exact sequential driver with library
/// defaults (multimodular arithmetic off) apart from precision and
/// strategy, so no workload's reference shares its modular layer.
pr::RootReport reference_report(const Input& in) {
  pr::RootFinderConfig cfg;
  cfg.mu_bits = in.mu;
  cfg.strategy = in.strategy;
  return pr::find_real_roots(in.poly, cfg);
}

/// Runs fn(i) for i in [0, n) on kRefThreads threads.
template <class F>
void parallel_for(std::size_t n, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kRefThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& t : threads) t.join();
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

/// --mode oracle: reference digests for every request of this seed,
/// each certified independently (certify for the paper path,
/// certify_isolation for the radii path).  Prints oracle-file lines.
int make_oracle(Run& run, Workload& w) {
  w.generate(run);
  std::vector<std::string> digests(run.inputs.size());
  std::vector<std::string> failures(run.inputs.size());
  parallel_for(run.inputs.size(), [&](std::size_t i) {
    const Input& in = run.inputs[i];
    const pr::RootReport rep = reference_report(in);
    digests[i] = report_digest(rep);
    if (in.strategy == pr::FinderStrategy::kPaper) {
      const auto cert = pr::certify(in.poly, rep);
      if (!cert.valid) failures[i] = cert.to_string();
    } else {
      const auto cert = pr::certify_isolation(in.poly);
      if (!cert.valid) failures[i] = cert.to_string();
    }
  });
  int bad = 0;
  for (std::size_t i = 0; i < run.inputs.size(); ++i) {
    if (!failures[i].empty()) {
      std::cerr << "certificate failed for " << run.inputs[i].name << ":\n"
                << failures[i] << "\n";
      ++bad;
      continue;
    }
    std::cout << run.args.workload << " " << run.args.seed << " "
              << run.inputs[i].key() << " " << digests[i] << "\n";
  }
  return bad ? 1 : 0;
}

/// Compares every recorded result with its reference; returns mismatches.
std::size_t verify(Run& run) {
  auto refs = load_refs(run.args.oracle_path, run.args);
  const std::size_t from_oracle = refs.size();
  const std::string cache = run.args.out_dir + "/refs-" + run.args.workload +
                            "-" + std::to_string(run.args.seed) + ".txt";
  for (const auto& [k, v] : load_refs(cache, run.args)) refs.emplace(k, v);
  std::vector<std::string> keys(run.inputs.size());
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < run.inputs.size(); ++i) {
    keys[i] = run.inputs[i].key();
    if (!refs.count(keys[i])) missing.push_back(i);
  }
  // Longest first (by degree), so the largest reference does not start last.
  std::stable_sort(missing.begin(), missing.end(), [&](std::size_t a, std::size_t b) {
    return run.inputs[a].poly.degree() > run.inputs[b].poly.degree();
  });
  std::vector<std::string> computed(missing.size());
  parallel_for(missing.size(), [&](std::size_t j) {
    computed[j] = report_digest(reference_report(run.inputs[missing[j]]));
  });
  if (!missing.empty()) {
    std::ofstream os(cache, std::ios::app);
    for (std::size_t j = 0; j < missing.size(); ++j) {
      refs[keys[missing[j]]] = computed[j];
      os << run.args.workload << " " << run.args.seed << " "
         << keys[missing[j]] << " " << computed[j] << "\n";
    }
  }
  std::size_t bad = 0;
  for (const Check& c : run.checks) {
    if (c.input < 0) continue;
    if (refs[keys[static_cast<std::size_t>(c.input)]] != c.digest) {
      if (bad < 5) run.note("MISMATCH " + run.inputs[static_cast<std::size_t>(c.input)].name);
      ++bad;
    }
  }
  run.note("verify: " + std::to_string(run.checks.size()) + " results against " +
           std::to_string(run.inputs.size()) + " references (" +
           std::to_string(std::min(from_oracle, run.inputs.size())) +
           " from the stored oracle, " + std::to_string(missing.size()) +
           " computed), " + std::to_string(bad) + " mismatches");
  return bad;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Probe time on the reference host (4-core Xeon, uncontended).
constexpr double kProbeReferenceSeconds = 2.5e-3;

/// Host-speed probe: a fixed integer loop that shares no code with the
/// library, run on kRefThreads threads at once while the library is idle.
/// Returns kProbeReferenceSeconds over the probe's time (the mean over
/// threads of each one's fastest of 5 repetitions): 1 on an uncontended
/// reference host, about 0.6 when other tenants slow every core down.
double host_speed() {
  constexpr int kReps = 5;
  constexpr std::uint64_t kIters = std::uint64_t{1} << 20;
  std::vector<double> best(kRefThreads, 1e30);
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kRefThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t);
      for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kIters; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          x *= 0xff51afd7ed558ccdULL;
        }
        best[static_cast<std::size_t>(t)] =
            std::min(best[static_cast<std::size_t>(t)], seconds_between(t0, Clock::now()));
      }
      sink += x;
    });
  }
  for (auto& t : threads) t.join();
  double sum = 0;
  for (double b : best) sum += b;
  return kProbeReferenceSeconds / (sum / kRefThreads);
}

}  // namespace

int main_impl(int argc, char** argv) {
  const auto t_main = Clock::now();
  Run run(parse_args(argc, argv));
  const Args& args = run.args;
  auto workload = make_workload(args.workload);

  if (args.mode == "inputs") {
    workload->generate(run);
    for (const auto& in : run.inputs) std::cout << in.name << " " << in.key() << "\n";
    for (const auto& s : workload->sizes(run)) std::cout << "size " << s << "\n";
    return 0;
  }
  if (args.mode == "oracle") return make_oracle(run, *workload);
  if (args.mode != "run" && args.mode != "setup") usage("unknown mode " + args.mode);

  // ---- set-up: everything before the first timed call ------------------
  {
    ScopedSpan s(run.tracer, "setup", -1, -1, 0);
    auto t0 = Clock::now();
    pr::calibrate::startup();
    add_layer(run, "calibrate.startup_s", seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    workload->generate(run);
    add_layer(run, "gen.input_s", seconds_between(t0, Clock::now()));
    workload->construct(run);
    workload->warmup(run);
  }
  const double internal_setup_s = seconds_between(t_main, Clock::now());
  std::cout << "READY" << std::endl;
  // The host's speed right after set-up; run.py scales setup_s with it.
  std::vector<double> speeds{host_speed()};
  std::cout << "SPEED " << fmt(speeds[0]) << std::endl;
  if (args.mode == "setup") return 0;

  // ---- timed section: closed loop, whole rounds ------------------------
  const int block = workload->round_block();
  const bool trace_mode = args.trace;
  std::vector<double> traced_walls, untraced_walls;
  struct Round {
    double wall = 0;
    std::size_t first = 0, end = 0;  ///< range in run.calls
  };
  std::vector<Round> rounds;
  // Whole blocks only, so every run sees the same mix of rounds; a traced
  // run has at least one traced and one untraced block.  A run far slower
  // than nominal stops early, at a block boundary.  The host's speed is
  // probed between rounds, while the library is idle.
  const int blocks = std::max(
      trace_mode ? 2 : 1,
      static_cast<int>(std::lround(args.seconds /
                                   (workload->nominal_round_seconds() * block))));
  while (run.rounds < blocks * block &&
         (run.rounds % block != 0 || run.timed_seconds < 3 * args.seconds)) {
    const bool traced = trace_mode && (run.rounds / block) % 2 == 0;
    run.tracer.set_enabled(traced);
    const std::size_t first = run.calls.size();
    const double wall = workload->run_round(run, run.rounds, traced);
    rounds.push_back({wall, first, run.calls.size()});
    run.timed_seconds += wall;
    (traced ? traced_walls : untraced_walls).push_back(wall);
    if (traced) ++run.traced_rounds;
    ++run.rounds;
    run.tracer.set_enabled(false);
    workload->between_rounds(run);
    speeds.push_back(host_speed());
  }
  const double rss = peak_rss_mb();
  run.tracer.set_enabled(trace_mode);
  // Round-level layer counters are reported per traced round.
  for (auto& [k, v] : run.layer) {
    if (k != "calibrate.startup_s" && k != "gen.input_s" && run.traced_rounds > 0) {
      v /= run.traced_rounds;
    }
  }
  if (trace_mode) workload->extras(run);

  // ---- correctness: every result against its reference -----------------
  const auto t_verify = Clock::now();
  const std::size_t mismatches = verify(run);
  run.layer["verify.check_s"] = seconds_between(t_verify, Clock::now());

  // ---- end-to-end metrics ----------------------------------------------
  // Other tenants of the host slow every core down by up to ~1.7x, in
  // phases of seconds to minutes.  Each round's times are reported at the
  // reference host's speed: scaled by the mean of the probes on either
  // side of it.  The raw figures are printed beside them.
  std::vector<double> lat, raw_lat;
  double scaled_seconds = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const double speed = 0.5 * (speeds[r] + speeds[r + 1]);
    scaled_seconds += rounds[r].wall * speed;
    for (std::size_t k = rounds[r].first; k < rounds[r].end; ++k) {
      lat.push_back(run.calls[k].ms * speed);
      raw_lat.push_back(run.calls[k].ms);
    }
  }
  std::sort(lat.begin(), lat.end());
  std::sort(raw_lat.begin(), raw_lat.end());
  const std::size_t n = lat.size();
  // Highest whole percentile with at least 10 samples beyond it.
  const int tail_pct =
      n > 10 ? static_cast<int>(std::floor(100.0 * static_cast<double>(n - 10) /
                                           static_cast<double>(n)))
             : 0;
  const double tail = rank_value(lat, tail_pct / 100.0);
  const std::size_t attempted = n;
  const std::size_t failed = std::min(attempted, run.failed_calls + mismatches);
  {
    run.note("host speed (1 = reference) over " + std::to_string(speeds.size()) +
             " probes: min " + fmt(*std::min_element(speeds.begin(), speeds.end())) +
             ", median " + fmt(median(speeds)) + ", max " +
             fmt(*std::max_element(speeds.begin(), speeds.end())));
    run.note("raw, unscaled: solves_per_s " + fmt(n / run.timed_seconds) +
             ", latency_ms_p50 " + fmt(median(raw_lat)) + ", latency_ms_tail " +
             fmt(rank_value(raw_lat, tail_pct / 100.0)));
  }
  run.layer["host.speed"] = median(speeds);

  // ---- traced-mode derived metrics --------------------------------------
  if (trace_mode) {
    const double att = run.layer["modular.attempts"];
    run.layer["modular.fallback_ratio"] = att > 0 ? run.layer["modular.fallbacks"] / att : 0;
    const double tr = median(traced_walls), un = median(untraced_walls);
    run.layer["trace.overhead_share"] = un > 0 ? (tr - un) / un : 0;
    run.note("tracing overhead: traced round median " + fmt(tr) +
             " s vs untraced " + fmt(un) + " s");
    const auto self = run.tracer.self_seconds();
    for (const auto& [name, s] : self) {
      if (s > 1e-4) run.note("self time " + name + ": " + fmt(s) + " s");
    }
    const std::string path = args.out_dir + "/trace-" + args.workload + "-s" +
                             std::to_string(args.seed) + ".json";
    const bool wrote = run.tracer.write_chrome(
        path, {{"workload", args.workload},
               {"seed", std::to_string(args.seed)},
               {"profile_id", pr::calibrate::active_profile_id()},
               {"isa", pr::modular::simd::isa_name(pr::modular::simd::active_isa())}});
    run.note((wrote ? "wrote " : "could not write ") + path + " (" +
             std::to_string(run.tracer.size()) + " spans)");
  }

  // Outcome mix (service) / class mix (others).
  std::map<std::string, std::size_t> mix;
  std::map<std::string, std::vector<double>> by_cls;
  for (const auto& c : run.calls) {
    ++mix[c.cls];
    by_cls[c.cls].push_back(c.ms);
  }
  for (const auto& [cls, v] : by_cls) {
    run.note("class " + cls + ": " + std::to_string(v.size()) + " calls, p50 " +
             fmt(median(v)) + " ms, max " +
             fmt(*std::max_element(v.begin(), v.end())) + " ms");
  }
  run.note("latency_ms_tail is p" + std::to_string(tail_pct) + " of " +
           std::to_string(n) + " samples");

  for (const auto& s : run.notes) std::cout << s << "\n";
  std::ostringstream js;
  js << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
     << ", \"trace\": " << (trace_mode ? 1 : 0)
     << ", \"profile_id\": \"" << pr::calibrate::active_profile_id()
     << "\", \"isa\": \"" << pr::modular::simd::isa_name(pr::modular::simd::active_isa())
     << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"failed_calls\": " << run.failed_calls
     << ", \"mismatches\": " << mismatches << ", \"rounds\": " << run.rounds
     << ", \"timed_s\": " << fmt(run.timed_seconds)
     << ", \"internal_setup_s\": " << fmt(internal_setup_s)
     << ", \"tail_percentile\": " << tail_pct << ", \"samples\": " << n
     << ", \"e2e\": {\"solves_per_s\": " << fmt(n / scaled_seconds)
     << ", \"latency_ms_p50\": " << fmt(median(lat))
     << ", \"latency_ms_tail\": " << fmt(tail)
     << ", \"error_rate\": " << fmt(attempted ? double(failed) / attempted : 0)
     << ", \"peak_rss_mb\": " << fmt(rss) << "}, \"layer\": {";
  bool first = true;
  for (const auto& [k, v] : run.layer) {
    js << (first ? "" : ", ") << "\"" << k << "\": " << fmt(v);
    first = false;
  }
  js << "}, \"mix\": {";
  first = true;
  for (const auto& [k, v] : mix) {
    js << (first ? "" : ", ") << "\"" << k << "\": " << fmt(double(v) / n);
    first = false;
  }
  js << "}}";
  std::cout << "RESULT " << js.str() << std::endl;
  return 0;
}

}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
