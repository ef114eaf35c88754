// service-mixed: two client threads against one RootService whose shared
// pool has 2 threads (at most 4 busy threads).  Client A submits single
// requests over a popularity-skewed population (paper-shape inputs under
// kPaper, general square-free inputs under kRadii) at mu in {53, 107, 256};
// client B sends run_batch waves of 8 lines at the default mu.
//
// Each round replays one slice's fixed script against a cold service, so
// the outcome mix (miss / full / derived / refined) does not drift with the
// speed of the code under test.  Rounds cycle over the slices.
#include <thread>

#include "common.hpp"

namespace e2e {
namespace {

constexpr int kSlices = 12;
constexpr int kPaperPerSlice = 36;
constexpr int kRadiiPerSlice = 12;
constexpr int kWaves = 10;
constexpr int kWaveLines = 8;
constexpr std::size_t kDefaultMu = 53;
constexpr std::size_t kMus[] = {53, 107, 256};

struct Member {
  pr::Poly poly;
  std::string text;
  pr::FinderStrategy strategy = pr::FinderStrategy::kPaper;
};

struct Slice {
  std::vector<int> members;              // population indices
  std::vector<int> a_requests;           // input indices, in order
  std::vector<std::vector<int>> waves;   // input indices per batch line
};

const char* outcome_name(pr::service::CacheOutcome o) {
  switch (o) {
    case pr::service::CacheOutcome::kMiss: return "miss";
    case pr::service::CacheOutcome::kHitFull: return "hit-full";
    case pr::service::CacheOutcome::kHitDerived: return "hit-derived";
    case pr::service::CacheOutcome::kHitRefined: return "refined";
  }
  return "?";
}

class ServiceMixed final : public Workload {
 public:
  ServiceMixed() { scfg_.parallel.num_threads = 2; }

  double nominal_round_seconds() const override { return 0.8; }
  /// One round per slice, so a block covers every slice once.
  int round_block() const override { return kSlices; }

  void generate(Run& run) override {
    pr::Prng rng(run.args.seed * 0x9e3779b97f4a7c15ULL + 0x5e41ce);
    // Degrees and Mignotte parameters follow fixed ladders; the seed draws
    // coefficients and the request order.  Every seed then asks for the
    // same spread of sizes, and the tail does not rest on one seed's draw.
    for (int s = 0; s < kSlices; ++s) {
      Slice slice;
      for (int k = 0; k < kPaperPerSlice; ++k) {
        const auto n = static_cast<std::size_t>(16 + (k * 25) / kPaperPerSlice);
        slice.members.push_back(add_member(pr::paper_input(n, rng).poly,
                                           pr::FinderStrategy::kPaper));
      }
      for (int k = 0; k < kRadiiPerSlice; ++k) {
        const int j = k / 3;
        pr::Poly p = k % 3 == 2
                         ? pr::mignotte(16 + 3 * j + s, 3 + 2 * j)
                         : pr::random_squarefree_poly(16 + 2 * (k - j) + s % 2,
                                                      20, rng);
        slice.members.push_back(add_member(std::move(p),
                                           pr::FinderStrategy::kRadii));
      }
      build_script(run, slice, rng);
      slices_.push_back(std::move(slice));
    }
    warm_text_ = pr::paper_input(16, rng).poly.to_string();
  }

  /// Script sizes and member degrees per slice (seed-independent).
  std::vector<std::string> sizes(const Run&) const override {
    std::vector<std::string> out;
    for (std::size_t s = 0; s < slices_.size(); ++s) {
      std::size_t lines = 0;
      for (const auto& w : slices_[s].waves) lines += w.size();
      std::string degrees;
      for (int m : slices_[s].members) {
        degrees += (degrees.empty() ? "" : ",") +
                   std::to_string(population_[static_cast<std::size_t>(m)].poly.degree());
      }
      out.push_back("slice " + std::to_string(s) + ": members=" +
                    std::to_string(slices_[s].members.size()) + " (paper " +
                    std::to_string(kPaperPerSlice) + ", radii " +
                    std::to_string(kRadiiPerSlice) + ") a_requests=" +
                    std::to_string(slices_[s].a_requests.size()) + " waves=" +
                    std::to_string(slices_[s].waves.size()) + " lines=" +
                    std::to_string(lines) + " degrees=" + degrees);
    }
    return out;
  }

  void construct(Run&) override {
    svc_ = std::make_unique<pr::service::RootService>(scfg_);
  }

  void warmup(Run&) override { svc_->submit(warm_text_, kDefaultMu); }

  void between_rounds(Run&) override {
    svc_.reset();
    svc_ = std::make_unique<pr::service::RootService>(scfg_);
  }

  double run_round(Run& run, int round, bool traced) override {
    const Slice& slice = slices_[static_cast<std::size_t>(round % kSlices)];
    struct Rec {
      CallRecord call;
      std::vector<Check> checks;
      bool failed = false;
    };
    std::vector<Rec> a_recs, b_recs;
    a_recs.reserve(slice.a_requests.size());
    b_recs.reserve(slice.waves.size());
    const auto t_round = Clock::now();
    ScopedSpan rspan(run.tracer, "round", -1, -1, 0,
                     {{"workload", "service-mixed"},
                      {"round", std::to_string(round)}});
    const std::int64_t base = static_cast<std::int64_t>(run.calls.size());

    std::thread client_b([&] {
      std::int64_t req = base + 1000000;
      for (const auto& wave : slice.waves) {
        std::vector<std::string> lines;
        for (int i : wave) lines.push_back(run.inputs[i].text);
        Rec rec;
        ScopedSpan request(run.tracer, "request", rspan.id(), req, 1,
                           {{"client", "B"}, {"lines", std::to_string(lines.size())},
                            {"mu", std::to_string(kDefaultMu)}});
        const auto t0 = Clock::now();
        std::vector<pr::service::ServiceResult> res;
        {
          ScopedSpan call(run.tracer, "RootService::run_batch", request.id(),
                          req, 1);
          try {
            res = svc_->run_batch(lines);
          } catch (const std::exception&) {
            rec.failed = true;
          }
        }
        rec.call = {seconds_between(t0, Clock::now()) * 1e3, "batch", traced};
        for (std::size_t k = 0; k < res.size(); ++k) {
          if (!res[k].ok) {
            rec.failed = true;
            continue;
          }
          rec.checks.push_back({wave[k], report_digest(res[k].report)});
        }
        b_recs.push_back(std::move(rec));
        ++req;
      }
    });

    std::int64_t req = base;
    for (int i : slice.a_requests) {
      const Input& in = run.inputs[i];
      Rec rec;
      ScopedSpan request(run.tracer, "request", rspan.id(), req, 0,
                         {{"client", "A"}, {"input", in.name},
                          {"mu", std::to_string(in.mu)},
                          {"strategy", pr::finder_strategy_name(in.strategy)}});
      const auto t0 = Clock::now();
      pr::service::ServiceResult res;
      {
        ScopedSpan call(run.tracer, "RootService::submit", request.id(), req, 0);
        try {
          res = svc_->submit(in.text, in.mu, in.strategy);
        } catch (const std::exception&) {
          res.ok = false;
        }
        call.tag("cache_outcome", outcome_name(res.outcome));
      }
      rec.call = {seconds_between(t0, Clock::now()) * 1e3,
                  outcome_name(res.outcome), traced};
      if (res.ok) {
        rec.checks.push_back({i, report_digest(res.report)});
      } else {
        rec.failed = true;
      }
      a_recs.push_back(std::move(rec));
      ++req;
    }
    client_b.join();
    const double wall = seconds_between(t_round, Clock::now());

    for (auto* recs : {&a_recs, &b_recs}) {
      for (auto& r : *recs) {
        run.calls.push_back(r.call);
        if (r.failed) ++run.failed_calls;
        for (auto& c : r.checks) run.checks.push_back(std::move(c));
      }
    }
    if (traced) {
      const auto st = svc_->stats();
      add_layer(run, "service.requests", static_cast<double>(st.requests));
      add_layer(run, "service.hits", static_cast<double>(st.hits_total()));
      add_layer(run, "service.dedup_waits", static_cast<double>(st.dedup_waits));
      add_layer(run, "service.refine_fallbacks",
                static_cast<double>(st.refine_fallbacks));
      add_layer(run, "service.evictions", static_cast<double>(st.evictions));
    }
    return wall;
  }

  void extras(Run& run) override {
    // Per-outcome latency of the traced rounds.
    std::map<std::string, std::vector<double>> by;
    for (const auto& c : run.calls) {
      if (!c.traced) continue;
      const std::string k = c.cls == "hit-full" || c.cls == "hit-derived"
                                ? "hit" : c.cls;
      by[k].push_back(c.ms);
    }
    for (const char* k : {"miss", "hit", "refined", "batch"}) {
      run.layer[std::string("service.") + k + "_ms_p50"] = median(by[k]);
    }
    const double reqs = run.layer["service.requests"];
    run.layer["service.hit_ratio"] = reqs > 0 ? run.layer["service.hits"] / reqs : 0;

    const Slice& slice = slices_[0];
    // Canonicalization: what every submit pays before the cache lookup.
    {
      ScopedSpan s(run.tracer, "service.canonicalize", -1, -1, 0);
      const auto t0 = Clock::now();
      for (int i : slice.a_requests) {
        const Input& in = run.inputs[i];
        pr::service::parse_request(in.text, in.mu, in.strategy);
      }
      add_layer(run, "service.canonicalize_s", seconds_between(t0, Clock::now()));
    }
    // Cold paper misses, one layer call at a time.
    pr::RootFinderConfig paper;
    paper.mu_bits = kDefaultMu;
    // Radii misses: isolation, then per-cell refinement.
    pr::RootFinderConfig radii;
    radii.strategy = pr::FinderStrategy::kRadii;
    radii.mu_bits = 256;
    for (int m : slice.members) {
      const Member& mem = population_[static_cast<std::size_t>(m)];
      const std::int64_t req = -2 - m;
      if (mem.strategy == pr::FinderStrategy::kPaper) {
        const int key = input_for(run, m, kDefaultMu);
        ScopedSpan s(run.tracer, "decomposition", -1, req, 0,
                     {{"input", run.inputs[key].name}, {"strategy", "paper"}});
        run.checks.push_back(
            {key, report_digest(decompose_sequential(run, mem.poly, paper, s.id(), req))});
        continue;
      }
      const int key = input_for(run, m, radii.mu_bits);
      ScopedSpan s(run.tracer, "decomposition", -1, req, 0,
                   {{"input", run.inputs[key].name}, {"strategy", "radii"}});
      auto t0 = Clock::now();
      pr::isolate::IsolationRun iso;
      {
        ScopedSpan l(run.tracer, "isolate.prepare", s.id(), req, 0);
        iso = pr::isolate::prepare_isolation(mem.poly, radii);
      }
      add_layer(run, "isolate.prepare_s", seconds_between(t0, Clock::now()));
      std::vector<pr::BigInt> roots;
      pr::isolate::QirStats qir;
      t0 = Clock::now();
      {
        ScopedSpan l(run.tracer, "isolate.refine", s.id(), req, 0);
        if (iso.work.degree() == 1) {
          roots.push_back(pr::BigInt::cdiv(-(iso.work.coeff(0) << radii.mu_bits),
                                           iso.work.coeff(1)));
        }
        for (const auto& cell : iso.isolation.cells) {
          roots.push_back(pr::isolate::cell_mu_approx(
              iso.isolation.stripped, cell, radii.mu_bits, radii.isolate.qir, &qir));
        }
      }
      add_layer(run, "isolate.refine_s", seconds_between(t0, Clock::now()));
      add_layer(run, "isolate.qir_iters", static_cast<double>(qir.iters));
      run.checks.push_back(
          {key, report_digest(pr::isolate::assemble_report(iso, radii, roots, qir))});
    }
  }

 private:
  int add_member(pr::Poly p, pr::FinderStrategy s) {
    Member m;
    m.text = p.to_string();
    m.poly = std::move(p);
    m.strategy = s;
    population_.push_back(std::move(m));
    return static_cast<int>(population_.size()) - 1;
  }

  /// The reference key for member m at precision mu.
  int input_for(Run& run, int m, std::size_t mu) {
    const auto key = std::make_pair(m, mu);
    const auto it = keys_.find(key);
    if (it != keys_.end()) return it->second;
    const Member& mem = population_[static_cast<std::size_t>(m)];
    Input in;
    in.name = "member-" + std::to_string(m) + "-mu" + std::to_string(mu);
    in.cls = mem.strategy == pr::FinderStrategy::kPaper ? "paper" : "radii";
    in.poly = mem.poly;
    in.text = mem.text;
    in.mu = mu;
    in.strategy = mem.strategy;
    const int idx = run.add_input(std::move(in));
    keys_.emplace(key, idx);
    return idx;
  }

  /// Popularity by rank: a few members are asked for often, most twice.
  /// Members are in ladder order (paper by degree, then radii), and the
  /// visit counts repeat one 12-member pattern over it, so every degree
  /// range gets the same popularity mix on every seed.
  void build_script(Run& run, Slice& slice, pr::Prng& rng) {
    constexpr int kVisits[12] = {5, 2, 3, 2, 2, 3, 5, 2, 2, 3, 2, 2};
    std::vector<int> tokens;
    std::vector<int> paper_ranked;  // popular first
    for (int visits : {5, 3, 2}) {
      for (std::size_t r = 0; r < slice.members.size(); ++r) {
        if (kVisits[r % 12] != visits) continue;
        const int m = slice.members[r];
        for (int v = 0; v < visits; ++v) tokens.push_back(m);
        if (population_[static_cast<std::size_t>(m)].strategy ==
            pr::FinderStrategy::kPaper) {
          paper_ranked.push_back(m);
        }
      }
    }
    for (std::size_t i = tokens.size(); i > 1; --i) {
      std::swap(tokens[i - 1], tokens[rng.below(i)]);
    }
    // Visit 1 asks for 53 or 107 bits (a miss), visit 2 for 256 bits (a
    // refine upgrade), later visits alternate between a lower precision
    // and 256 (derived or full hits).  The precisions follow the member's
    // place in the ladder, so the outcome mix is the same on every seed
    // and every class stays above ~10 %.
    std::map<int, int> seen;
    for (int m : tokens) {
      const int visit = seen[m]++;
      std::size_t mu = kMus[2];
      if (visit == 0) {
        mu = m % 5 < 3 ? kMus[0] : kMus[1];
      } else if (visit >= 2 && visit % 2 == 0) {
        mu = kMus[(m + visit / 2) % 2];
      }
      slice.a_requests.push_back(input_for(run, m, mu));
    }
    // Client B: batches over the slice's paper members, skewed to the
    // popular end of the ranking.
    for (int w = 0; w < kWaves; ++w) {
      std::vector<int> wave;
      for (int l = 0; l < kWaveLines; ++l) {
        const auto a = rng.below(paper_ranked.size());
        const auto b = rng.below(paper_ranked.size());
        wave.push_back(input_for(run, paper_ranked[std::min(a, b)], kDefaultMu));
      }
      slice.waves.push_back(std::move(wave));
    }
  }

  pr::service::ServiceConfig scfg_;
  std::unique_ptr<pr::service::RootService> svc_;
  std::vector<Member> population_;
  std::vector<Slice> slices_;
  std::map<std::pair<int, std::size_t>, int> keys_;
  std::string warm_text_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mixed() {
  return std::make_unique<ServiceMixed>();
}

}  // namespace e2e
