// Command-line root finder.
//
//   $ example_polyroots_cli "x^3 - 2*x + 1" [--digits N] [--exact]
//                           [--threads T] [--stats]
//   $ example_polyroots_cli --batch FILE [--digits N] [--threads T] [...]
//   $ example_polyroots_cli --serve [--digits N] [--threads T] [...]
//
// Single-shot mode parses the polynomial, finds all real roots, and
// prints them as decimals (default), exact rational enclosures (--exact),
// or with the per-phase instrumentation summary (--stats).  --threads
// (alias --parallel) sets the task graph's thread count (default 1, where
// the graph runs inline).
//
// --batch FILE routes one request line per file line ("-" = stdin)
// through the RootService: duplicate lines collapse onto one computation
// and repeats hit the result cache.  --serve is the interactive flavor: it
// reads request lines from stdin and answers each as it arrives (also
// service-backed, so repeated queries hit the cache).  --no-cache
// disables the result cache in either mode; --stats appends the service
// counter summary.
//
// All numeric options are strictly validated: a malformed or
// out-of-range value (e.g. "--threads x") is a usage error (exit 2) with
// a diagnostic naming the flag, never silently treated as 0.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "modular/simd/simd.hpp"
#include "polyroots.hpp"
#include "service/root_service.hpp"

namespace {

void usage() {
  std::cout <<
      "usage: example_polyroots_cli \"<polynomial in x>\" [options]\n"
      "       example_polyroots_cli --batch FILE [options]\n"
      "       example_polyroots_cli --serve [options]\n"
      "  --digits N    output precision in decimal digits (default 20)\n"
      "  --exact       print exact rational enclosures ((k-1)/2^mu, k/2^mu]\n"
      "  --threads T   run the task graph on T threads (default 1)\n"
      "                (--parallel T is accepted as an alias)\n"
      "  --finder F    isolation pipeline: \"paper\" (interleaving tree,\n"
      "                default) or \"radii\" (Descartes isolation + QIR\n"
      "                refinement; accepts inputs with complex roots)\n"
      "  --batch FILE  serve every request line of FILE (\"-\" = stdin)\n"
      "                through the batching RootService\n"
      "  --serve       read request lines from stdin, answer each\n"
      "                (service-backed: repeats hit the result cache)\n"
      "  --no-cache    disable the service result cache\n"
      "  --stats       print the per-phase operation counters (or the\n"
      "                service counters in batch/serve mode)\n"
      "examples:\n"
      "  example_polyroots_cli \"x^2 - 2\"\n"
      "  example_polyroots_cli \"x^3 - 6x^2 + 11x - 6\" --digits 40 --exact\n"
      "  example_polyroots_cli \"x^4 - 10x^2 + 1\" --threads 4 --stats\n"
      "  example_polyroots_cli \"x^3 - 2\" --finder radii\n"
      "  example_polyroots_cli --batch requests.txt --threads 4 --stats\n";
}

/// Strict numeric option parsing: `value` must be a whole base-10
/// integer in [min, max].  On failure prints a diagnostic naming the
/// flag and exits 2 -- "--threads x" must never silently become 0.
long option_value(const char* flag, const char* value, long min, long max) {
  long out = 0;
  if (!pr::parse_long_strict(value, min, max, out)) {
    std::cerr << "invalid value for " << flag << ": \"" << value
              << "\" (expected an integer in [" << min << ", " << max
              << "])\n";
    std::exit(2);
  }
  return out;
}

/// Fetches the value of a value-taking flag, diagnosing a flag that ends
/// argv ("... --digits") as missing its value, not as an unknown option.
const char* option_arg(const char* flag, int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::cerr << "missing value for " << flag << "\n";
    std::exit(2);
  }
  return argv[++i];
}

/// Strict strategy parsing: only the two strategy names are accepted;
/// anything else is a usage error (exit 2) naming the flag.
pr::FinderStrategy finder_value(const char* value) {
  if (std::strcmp(value, "paper") == 0) return pr::FinderStrategy::kPaper;
  if (std::strcmp(value, "radii") == 0) return pr::FinderStrategy::kRadii;
  std::cerr << "invalid value for --finder: \"" << value
            << "\" (expected \"paper\" or \"radii\")\n";
  std::exit(2);
}

const char* outcome_name(const pr::service::ServiceResult& r) {
  if (r.deduplicated) return "dedup";
  switch (r.outcome) {
    case pr::service::CacheOutcome::kHitFull: return "hit";
    case pr::service::CacheOutcome::kHitDerived: return "hit-derived";
    case pr::service::CacheOutcome::kHitRefined: return "hit-refined";
    case pr::service::CacheOutcome::kMiss: break;
  }
  return "miss";
}

void print_service_result(std::size_t line_no,
                          const pr::service::ServiceResult& r, int digits,
                          bool exact) {
  if (!r.ok) {
    // Batch diagnostics already carry their own "line N: " prefix.
    const std::string prefix = "line " + std::to_string(line_no) + ": ";
    const bool prefixed = r.error.compare(0, prefix.size(), prefix) == 0;
    std::cout << prefix << "error: "
              << (prefixed ? r.error.substr(prefix.size()) : r.error) << "\n";
    return;
  }
  std::cout << "line " << line_no << " [" << outcome_name(r) << "]:";
  if (r.report.roots.empty()) std::cout << " no real roots";
  for (std::size_t i = 0; i < r.report.roots.size(); ++i) {
    std::cout << " "
              << pr::scaled_to_string(r.report.roots[i], r.report.mu,
                                      digits);
    if (r.report.multiplicities[i] != 1) {
      std::cout << "(m" << r.report.multiplicities[i] << ")";
    }
  }
  std::cout << "\n";
  if (exact) {
    for (std::size_t i = 0; i < r.report.roots.size(); ++i) {
      const auto enc = pr::root_enclosure(r.report.roots[i], r.report.mu);
      std::cout << "      x_" << i << " in (" << enc.lo << ", " << enc.hi
                << "]\n";
    }
  }
}

void print_kernel_stats() {
  namespace simd = pr::modular::simd;
  std::cout << "\nmod-p kernels: " << simd::isa_name(simd::active_isa())
            << "  (available:";
  for (const simd::Isa isa : simd::available_isas()) {
    std::cout << " " << simd::isa_name(isa);
  }
  std::cout << "; POLYROOTS_SIMD caps the pick)\n"
            << "bigint mul: schoolbook\n";
}

void print_service_stats(const pr::service::RootService& service) {
  const auto s = service.stats();
  std::cout << "\nservice: requests " << s.requests << "  invalid "
            << s.invalid << "  misses " << s.misses << "\n"
            << "  hits: full " << s.hits_full << "  derived "
            << s.hits_derived << "  refined " << s.hits_refined
            << "  (refine fallbacks " << s.refine_fallbacks << ")\n"
            << "  dedup: in-flight " << s.dedup_waits << "  in-batch "
            << s.batch_dedup << "\n"
            << "  cache: size " << s.cache_size << "  evictions "
            << s.evictions << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  int digits = 20;
  bool exact = false;
  bool stats = false;
  bool serve = false;
  bool no_cache = false;
  const char* batch_file = nullptr;
  int threads = 0;
  pr::FinderStrategy finder = pr::FinderStrategy::kPaper;
  const char* poly_text = nullptr;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--digits") == 0) {
      digits = static_cast<int>(option_value(
          "--digits", option_arg("--digits", argc, argv, i), 1, 100000));
    } else if (std::strcmp(argv[i], "--exact") == 0) {
      exact = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      no_cache = true;
    } else if (std::strcmp(argv[i], "--finder") == 0) {
      finder = finder_value(option_arg("--finder", argc, argv, i));
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch_file = option_arg("--batch", argc, argv, i);
    } else if (std::strcmp(argv[i], "--parallel") == 0 ||
               std::strcmp(argv[i], "--threads") == 0) {
      const char* flag = argv[i];
      threads = static_cast<int>(
          option_value(flag, option_arg(flag, argc, argv, i), 1, 1024));
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::cerr << "unknown option: " << argv[i] << "\n";
      usage();
      return 2;
    } else if (poly_text == nullptr) {
      poly_text = argv[i];
    } else {
      std::cerr << "unexpected argument: " << argv[i] << "\n";
      usage();
      return 2;
    }
  }

  pr::RootFinderConfig cfg;
  cfg.mu_bits = static_cast<std::size_t>(
      std::ceil(digits * std::log2(10.0))) + 4;
  cfg.strategy = finder;

  // ---- service-backed batch / serve modes -------------------------------
  if (serve || batch_file != nullptr) {
    if (poly_text != nullptr) {
      std::cerr << "batch/serve mode takes request lines from "
                << (batch_file ? "the batch file" : "stdin")
                << ", not the command line\n";
      return 2;
    }
    pr::service::ServiceConfig scfg;
    scfg.finder = cfg;
    scfg.parallel.num_threads = threads > 0 ? threads : 1;
    scfg.cache_enabled = !no_cache;
    pr::service::RootService service(scfg);

    if (batch_file != nullptr) {
      std::ifstream file;
      std::istream* in = &std::cin;
      if (std::strcmp(batch_file, "-") != 0) {
        file.open(batch_file);
        if (!file) {
          std::cerr << "cannot open batch file: " << batch_file << "\n";
          return 2;
        }
        in = &file;
      }
      std::vector<std::string> lines;
      std::string line;
      while (std::getline(*in, line)) lines.push_back(line);
      // Blank lines stay in the batch (as positional placeholders would
      // complicate output numbering) but are skipped, not errors.
      std::vector<std::size_t> line_no;
      std::vector<std::string> requests;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].find_first_not_of(" \t\r") == std::string::npos) {
          continue;
        }
        line_no.push_back(i + 1);
        requests.push_back(lines[i]);
      }
      const auto results = service.run_batch(requests);
      for (std::size_t i = 0; i < results.size(); ++i) {
        print_service_result(line_no[i], results[i], digits, exact);
      }
    } else {
      std::string line;
      std::size_t line_no = 0;
      while (std::getline(std::cin, line)) {
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        print_service_result(line_no, service.submit(line), digits, exact);
      }
    }
    if (stats) {
      print_service_stats(service);
      print_kernel_stats();
    }
    return 0;
  }

  // ---- single-shot mode -------------------------------------------------
  if (poly_text == nullptr) {
    std::cerr << "missing polynomial argument\n";
    usage();
    return 2;
  }
  pr::Poly p;
  try {
    p = pr::Poly::parse(poly_text);
  } catch (const pr::Error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (p.degree() < 1) {
    std::cerr << "polynomial must be non-constant\n";
    return 2;
  }

  pr::instr::reset_all();
  pr::RootReport report;
  try {
    pr::ParallelConfig pc;
    pc.num_threads = threads > 0 ? threads : 1;
    report = pr::find_real_roots_parallel(p, cfg, pc).report;
  } catch (const pr::Error& e) {
    std::cerr << "root finding failed: " << e.what() << "\n";
    return 1;
  }

  std::cout << "p(x) = " << p << "\n";
  if (report.roots.empty()) {
    std::cout << "no real roots\n";
  }
  for (std::size_t i = 0; i < report.roots.size(); ++i) {
    std::cout << "x_" << i << " = "
              << pr::scaled_to_string(report.roots[i], report.mu, digits);
    if (report.multiplicities[i] != 1) {
      std::cout << "  (multiplicity " << report.multiplicities[i] << ")";
    }
    std::cout << "\n";
    if (exact) {
      const auto enc = pr::root_enclosure(report.roots[i], report.mu);
      std::cout << "      in (" << enc.lo << ", " << enc.hi << "]\n";
    }
  }
  if (report.used_sturm_fallback) {
    std::cout << "(answered by the Descartes isolator: the input has "
                 "non-real roots or a degenerate sequence)\n";
  }
  if (stats) {
    std::cout << "\n" << pr::instr::format(pr::instr::aggregate());
    print_kernel_stats();
  }
  return 0;
}
