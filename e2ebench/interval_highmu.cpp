// interval-highmu: one caller, find_real_roots at library defaults (exact
// arithmetic, paper strategy, one thread) at mu = 1024 bits.  The interval
// solver, scaled Horner evaluation and Karatsuba-size products carry it.
#include "common.hpp"

namespace e2e {
namespace {

constexpr std::size_t kMu = 1024;
constexpr int kSets = 4;

class IntervalHighMu final : public Workload {
 public:
  IntervalHighMu() { cfg_.mu_bits = kMu; }

  double nominal_round_seconds() const override { return 11.0; }

  void generate(Run& run) override {
    pr::Prng rng(run.args.seed * 0x9e3779b97f4a7c15ULL + 0x1a7e);
    const auto add = [&](std::string name, std::string cls, pr::Poly p) {
      Input in;
      in.name = std::move(name);
      in.cls = std::move(cls);
      in.poly = std::move(p);
      in.mu = kMu;
      return run.add_input(std::move(in));
    };
    // kSets sets of 9 calls each; one round runs every set.  Many
    // distinct paper inputs per round keep the latency quantiles from
    // resting on one input's difficulty.
    for (int set = 0; set < kSets; ++set) {
      const std::string tag = "-" + std::to_string(set);
      // Roots 2^-40 apart around a seeded integer centre.
      const int c = add("clustered-12" + tag, "clustered",
                        pr::clustered_squarefree(12, 40, rng.range(-20, 20), rng));
      if (set == 0) warm_ = c;
      // Integer roots that land exactly on interleaving points.
      add("wilkinson-20" + tag, "wilkinson", pr::wilkinson(20));
      const std::pair<int, int> paper[] = {{24, 3}, {32, 2}, {40, 2}};
      for (const auto& [n, count] : paper) {
        for (int k = 0; k < count; ++k) {
          add("paper-" + std::to_string(n) + static_cast<char>('a' + k) + tag,
              "paper-" + std::to_string(n),
              pr::paper_input(static_cast<std::size_t>(n), rng).poly);
        }
      }
    }
    order_.resize(run.inputs.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.below(i)]);
    }
    per_input_ms_.assign(run.inputs.size(), {});
  }

  void warmup(Run& run) override {
    pr::find_real_roots(run.inputs[warm_].poly, cfg_);
  }

  double run_round(Run& run, int round, bool traced) override {
    const auto pc0 = pr::instr::aggregate();
    const auto t_round = Clock::now();
    ScopedSpan rspan(run.tracer, "round", -1, -1, 0,
                     {{"workload", "interval-highmu"},
                      {"round", std::to_string(round)}});
    for (int i : order_) {
      const Input& in = run.inputs[i];
      const std::int64_t req = static_cast<std::int64_t>(run.calls.size());
      ScopedSpan request(run.tracer, "request", rspan.id(), req, 0,
                         {{"input", in.name}, {"mu", std::to_string(in.mu)},
                          {"strategy", "paper"}});
      pr::RootReport rep;
      bool ok = true;
      const auto t0 = Clock::now();
      std::int64_t call = run.tracer.begin("find_real_roots", request.id(), req, 0);
      try {
        rep = pr::find_real_roots(in.poly, cfg_);
      } catch (const std::exception& e) {
        ok = false;
        run.note(std::string("call failed: ") + in.name + ": " + e.what());
      }
      run.tracer.end(call);
      const double ms = seconds_between(t0, Clock::now()) * 1e3;
      run.calls.push_back({ms, in.cls, traced});
      if (!ok) {
        ++run.failed_calls;
        continue;
      }
      run.checks.push_back({i, report_digest(rep)});
      per_input_ms_[i].push_back(ms);
      if (traced) record_interval_stats(run, rep.stats);
    }
    const double wall = seconds_between(t_round, Clock::now());
    if (traced) record_bitcost(run, pr::instr::aggregate() - pc0);
    return wall;
  }

  void extras(Run& run) override {
    for (int i : order_) {
      const Input& in = run.inputs[i];
      const std::int64_t req = static_cast<std::int64_t>(run.calls.size()) + i;
      ScopedSpan request(run.tracer, "decomposition-request", -1, req, 0,
                         {{"input", in.name}, {"mu", std::to_string(in.mu)}});
      const auto before = run.layer;
      const auto t0 = Clock::now();
      pr::RootReport dec;
      {
        ScopedSpan s(run.tracer, "decomposition", request.id(), req, 0);
        dec = decompose_sequential(run, in.poly, cfg_, s.id(), req);
      }
      const double dec_s = seconds_between(t0, Clock::now());
      run.checks.push_back({i, report_digest(dec)});
      double layers = 0;
      for (const auto& [k, v] : run.layer) {
        const auto it = before.find(k);
        if (k == "poly.remainder_s" || k == "core.tree_poly_s" ||
            k == "core.node_roots_s" || k == "poly.squarefree_s" ||
            k == "core.multiplicity_s") {
          layers += v - (it == before.end() ? 0.0 : it->second);
        }
      }
      const double call_s = median(per_input_ms_[i]) / 1e3;
      add_layer(run, "core.sequential_driver_s", call_s);
      add_layer(run, "core.unattributed_s", call_s - layers);
      char line[256];
      std::snprintf(line, sizeof line,
                    "interval-highmu %-13s n=%3d  find_real_roots p50 %.4fs  "
                    "decomposition %.4fs (layers %.4fs)",
                    in.name.c_str(), in.poly.degree(), call_s, dec_s, layers);
      run.note(line);
    }
  }

 private:
  pr::RootFinderConfig cfg_;
  int warm_ = 0;
  std::vector<int> order_;
  std::vector<std::vector<double>> per_input_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_interval_highmu() {
  return std::make_unique<IntervalHighMu>();
}

}  // namespace e2e
