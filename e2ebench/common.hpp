// Shared pieces of the end-to-end benchmark: inputs, result digests, the
// per-run record, percentile helpers and the workload interface.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "polyroots.hpp"
#include "spans.hpp"

namespace e2e {

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// 64-bit FNV-1a, rendered as 16 hex digits.
class Fnv {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;
    h_ *= 0x100000001b3ULL;
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of what a RootReport claims: precision, roots, multiplicities.
inline std::string report_digest(const pr::RootReport& r) {
  Fnv f;
  f.add(std::to_string(r.mu));
  for (const auto& x : r.roots) f.add(x.to_hex());
  for (unsigned m : r.multiplicities) f.add(std::to_string(m));
  return f.hex();
}

/// One distinct request the benchmark sends: a polynomial at a precision
/// under a finder strategy.  Its reference report digest is the oracle.
struct Input {
  std::string name;  ///< e.g. "jacobi-96a"
  std::string cls;   ///< latency class, e.g. "jacobi-96"
  pr::Poly poly;
  std::string text;  ///< request text (service workload)
  std::size_t mu = 53;
  pr::FinderStrategy strategy = pr::FinderStrategy::kPaper;

  /// Identity of the request: coefficients, precision, strategy.
  std::string key() const {
    Fnv f;
    f.add(poly.to_string());
    f.add(std::to_string(mu));
    f.add(pr::finder_strategy_name(strategy));
    return f.hex();
  }
};

/// One public call as the caller saw it.
struct CallRecord {
  double ms = 0;
  std::string cls;  ///< latency class (or outcome for the service)
  bool traced = false;
};

/// One result to compare against the oracle after the timed section.
struct Check {
  int input = -1;  ///< index into Run::inputs; -1 == call failed outright
  std::string digest;
};

/// Nearest-rank percentile of an ascending vector (q in [0, 1]).
inline double rank_value(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(q * sorted.size() + 0.999999);
  k = std::clamp<std::size_t>(k, 1, sorted.size());
  return sorted[k - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  std::string mode = "run";  // run | setup | inputs | oracle
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string oracle_path;
};

/// Everything one benchmark process measures.
struct Run {
  explicit Run(const Args& a) : args(a), tracer(a.trace) {}

  Args args;
  Tracer tracer;
  std::vector<Input> inputs;  ///< distinct requests (reference keys)
  std::vector<CallRecord> calls;
  std::vector<Check> checks;
  std::size_t failed_calls = 0;  ///< threw or returned !ok
  double timed_seconds = 0;      ///< sum of round walls
  int rounds = 0;
  int traced_rounds = 0;
  std::map<std::string, double> layer;  ///< per-layer metrics
  std::vector<std::string> notes;       ///< human-readable report lines

  void note(const std::string& s) { notes.push_back(s); }
  int add_input(Input in) {
    inputs.push_back(std::move(in));
    return static_cast<int>(inputs.size()) - 1;
  }
};

/// A named traffic mix.  The driver calls generate/construct/warmup for
/// set-up, then run_round until the time budget is spent, then extras in
/// traced mode.  Every call into the library goes through these methods.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Nominal wall time of one round on the reference host (4 cores).  The
  /// round count is fixed from --seconds with it, not from the clock: the
  /// median and tail ranks then fall at the same place in the same latency
  /// classes on every run, however fast the host or the code is that day.
  virtual double nominal_round_seconds() const = 0;
  /// Rounds run (and alternate traced/untraced) in blocks of this many, so
  /// that every block covers the workload's whole script.
  virtual int round_block() const { return 1; }
  /// Builds every input from the seed (timed as gen.input_s).
  virtual void generate(Run& run) = 0;
  /// Constructs long-lived objects (the service), if any.
  virtual void construct(Run&) {}
  /// One untimed call that lets lazy set-up and caches fill.
  virtual void warmup(Run& run) = 0;
  /// One closed-loop pass over the workload's script; returns its wall.
  virtual double run_round(Run& run, int round, bool traced) = 0;
  /// Called between rounds, outside the timed section.
  virtual void between_rounds(Run&) {}
  /// Traced-mode side measurements (layer decomposition, model checks).
  virtual void extras(Run&) {}
  /// Human-readable input summary (sizes), one line per input class.
  virtual std::vector<std::string> sizes(const Run& run) const;
};

inline std::vector<std::string> Workload::sizes(const Run& run) const {
  std::map<std::string, std::vector<int>> by_cls;
  for (const auto& in : run.inputs) {
    by_cls[in.cls + " mu=" + std::to_string(in.mu) + " " +
           pr::finder_strategy_name(in.strategy)]
        .push_back(in.poly.degree());
  }
  std::vector<std::string> out;
  for (const auto& [cls, degs] : by_cls) {
    std::string line = cls + " count=" + std::to_string(degs.size()) +
                       " degrees=";
    for (std::size_t i = 0; i < degs.size(); ++i) {
      line += (i ? "," : "") + std::to_string(degs[i]);
    }
    out.push_back(line);
  }
  return out;
}

std::unique_ptr<Workload> make_tree_large();
std::unique_ptr<Workload> make_interval_highmu();
std::unique_ptr<Workload> make_service_mixed();

/// Shared layer helpers (layers.cpp).

/// Adds `value` to the per-layer metric `name`.
inline void add_layer(Run& run, const std::string& name, double value) {
  run.layer[name] += value;
}

/// instr::aggregate() bit-cost deltas -> instr.* metrics.
void record_bitcost(Run& run, const pr::instr::PhaseCounts& delta);
/// instr::modular_counts() deltas -> modular.* counts.
void record_modular(Run& run, const pr::instr::ModularCounts& before,
                    const pr::instr::ModularCounts& after);
/// IntervalStats -> core.* counts.
void record_interval_stats(Run& run, const pr::IntervalStats& s);

/// The sequential driver's steps run one by one through the layers'
/// public functions (stage 1, tree polynomials, node roots,
/// multiplicities), each timed and traced as a layer span under `parent`.
/// Returns the report the steps produce, for a bit-identity check.
pr::RootReport decompose_sequential(Run& run, const pr::Poly& p,
                                    const pr::RootFinderConfig& cfg,
                                    std::int64_t parent, std::int64_t request);

}  // namespace e2e
