// RootService (src/service/): canonicalization, the result cache's
// full/derived/refined hit ladder (bit-identical to cold runs at every
// thread count), LRU evictions, in-flight dedup, and run_batch.
#include "service/root_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/root_finder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "service/canonical.hpp"
#include "service/result_cache.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

using service::CacheEntry;
using service::CacheOutcome;
using service::RootService;
using service::ServiceConfig;
using service::ServiceResult;

/// Bit-identity = every RootReport field except `stats` (instrumentation
/// differs between a cold tree run and, say, a refine re-entry; the
/// mathematical content must not).
void expect_same_report(const RootReport& a, const RootReport& b,
                        const std::string& label) {
  EXPECT_EQ(a.roots, b.roots) << label;
  EXPECT_EQ(a.multiplicities, b.multiplicities) << label;
  EXPECT_EQ(a.mu, b.mu) << label;
  EXPECT_EQ(a.bound_pow2, b.bound_pow2) << label;
  EXPECT_EQ(a.degree, b.degree) << label;
  EXPECT_EQ(a.distinct_roots, b.distinct_roots) << label;
  EXPECT_EQ(a.squarefree_reduced, b.squarefree_reduced) << label;
  EXPECT_EQ(a.used_sturm_fallback, b.used_sturm_fallback) << label;
}

ServiceConfig config_for(int threads, std::size_t mu = 53) {
  ServiceConfig cfg;
  cfg.finder.mu_bits = mu;
  cfg.parallel.num_threads = threads;
  return cfg;
}

// --- canonicalization -------------------------------------------------------

TEST(Canonical, FoldsContentAndLeadingSign) {
  const auto base = service::canonicalize(Poly::parse("x^2 - 2"), 53);
  const auto scaled = service::canonicalize(Poly::parse("2x^2 - 4"), 53);
  const auto negated = service::canonicalize(Poly::parse("-x^2 + 2"), 53);
  EXPECT_EQ(base.canonical, scaled.canonical);
  EXPECT_EQ(base.canonical, negated.canonical);
  EXPECT_EQ(base.hash, scaled.hash);
  EXPECT_EQ(base.hash, negated.hash);
  // The divided-out transform is recorded, making exactness auditable.
  EXPECT_EQ(scaled.content, BigInt(2));
  EXPECT_FALSE(scaled.negated);
  EXPECT_TRUE(negated.negated);
  EXPECT_FALSE(base.negated);
  EXPECT_EQ(base.canonical.leading().signum(), 1);
}

TEST(Canonical, RejectsConstantInput) {
  EXPECT_THROW(service::canonicalize(Poly::constant(BigInt(7)), 53),
               InvalidArgument);
  EXPECT_THROW(service::parse_request("42", 53), InvalidArgument);
}

TEST(Canonical, RejectsMuBitsAboveTheLimit) {
  const Poly p = Poly::parse("x^2 - 2");
  EXPECT_EQ(service::canonicalize(p, service::kMaxMuBits).mu_bits,
            service::kMaxMuBits);
  EXPECT_THROW(service::canonicalize(p, service::kMaxMuBits + 1),
               InvalidArgument);
  EXPECT_THROW(service::parse_request("x^2 - 2", std::size_t{1} << 60),
               InvalidArgument);
}

TEST(Canonical, HashSeparatesNearbyPolynomials) {
  const char* inputs[] = {"x^2 - 2", "x^2 + 2", "x^2 - 3", "x^3 - 2",
                          "2x^2 - 2", "x^2 - 2x", "x - 2"};
  std::vector<std::uint64_t> hashes;
  for (const char* s : inputs) {
    hashes.push_back(service::parse_request(s, 53).hash);
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j]) << inputs[i] << " vs " << inputs[j];
    }
  }
}

// --- result cache -----------------------------------------------------------

TEST(ResultCache, InsertFindAndReplace) {
  service::ResultCache cache(4, 1);
  const auto req = service::parse_request("x^2 - 2", 30);
  EXPECT_EQ(cache.find(req.hash, req.canonical), nullptr);
  auto entry = std::make_shared<CacheEntry>();
  entry->canonical = req.canonical;
  entry->refine_poly = req.canonical;
  entry->report.mu = 30;
  cache.insert(req.hash, entry);
  auto got = cache.find(req.hash, req.canonical);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->report.mu, 30u);
  // Same polynomial again: replaced, not duplicated.
  auto upgraded = std::make_shared<CacheEntry>(*entry);
  upgraded->report.mu = 60;
  cache.insert(req.hash, upgraded);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(req.hash, req.canonical)->report.mu, 60u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  service::ResultCache cache(2, 1);
  const char* inputs[] = {"x^2 - 2", "x^2 - 3", "x^2 - 5"};
  std::vector<service::CanonicalRequest> reqs;
  for (const char* s : inputs) {
    reqs.push_back(service::parse_request(s, 30));
    auto entry = std::make_shared<CacheEntry>();
    entry->canonical = reqs.back().canonical;
    entry->refine_poly = reqs.back().canonical;
    cache.insert(reqs.back().hash, entry);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  // The oldest entry went; the two recent ones stayed.
  EXPECT_EQ(cache.find(reqs[0].hash, reqs[0].canonical), nullptr);
  EXPECT_NE(cache.find(reqs[1].hash, reqs[1].canonical), nullptr);
  EXPECT_NE(cache.find(reqs[2].hash, reqs[2].canonical), nullptr);
}

// --- service: hit ladder ----------------------------------------------------

class ServiceThreads : public ::testing::TestWithParam<int> {};

TEST_P(ServiceThreads, CacheHitsAreBitIdenticalToColdRuns) {
  const int threads = GetParam();
  Prng rng(99);
  const auto input = paper_input(8, rng);
  RootService service(config_for(threads, 40));

  RootFinderConfig cold_cfg;
  cold_cfg.mu_bits = 40;
  const RootReport cold = find_real_roots(input.poly, cold_cfg);

  const auto miss = service.solve(input.poly, 40);
  ASSERT_TRUE(miss.ok) << miss.error;
  EXPECT_EQ(miss.outcome, CacheOutcome::kMiss);
  expect_same_report(miss.report, cold, "cold vs direct");

  const auto hit = service.solve(input.poly, 40);
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.outcome, CacheOutcome::kHitFull);
  expect_same_report(hit.report, cold, "full hit");

  // Lower precision: derived exactly from the stored roots.
  cold_cfg.mu_bits = 17;
  const RootReport cold_lo = find_real_roots(input.poly, cold_cfg);
  const auto derived = service.solve(input.poly, 17);
  ASSERT_TRUE(derived.ok);
  EXPECT_EQ(derived.outcome, CacheOutcome::kHitDerived);
  expect_same_report(derived.report, cold_lo, "derived hit");

  // Higher precision: refine_roots_parallel on the stored cells, which
  // replaces the entry.
  cold_cfg.mu_bits = 90;
  const RootReport cold_hi = find_real_roots(input.poly, cold_cfg);
  const auto refined = service.solve(input.poly, 90);
  ASSERT_TRUE(refined.ok);
  EXPECT_EQ(refined.outcome, CacheOutcome::kHitRefined);
  expect_same_report(refined.report, cold_hi, "refined hit");

  // The upgraded entry now serves the higher precision as a full hit.
  const auto hit_hi = service.solve(input.poly, 90);
  ASSERT_TRUE(hit_hi.ok);
  EXPECT_EQ(hit_hi.outcome, CacheOutcome::kHitFull);
  expect_same_report(hit_hi.report, cold_hi, "post-upgrade full hit");

  const auto s = service.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits_full, 2u);
  EXPECT_EQ(s.hits_derived, 1u);
  EXPECT_EQ(s.hits_refined, 1u);
}

TEST_P(ServiceThreads, RefineUpgradeOfReducedAndFallbackInputs) {
  const int threads = GetParam();
  RootService service(config_for(threads));
  // Repeated roots: the cold run reduces to the squarefree part, so the
  // cached cells isolate roots of that part, not of the input itself.
  const Poly repeated = poly_from_integer_roots({-3, 1, 1, 4});
  // Non-real roots: kPaper's fallback through the Descartes isolator.
  const Poly complexish = Poly::parse("x^4 + x^2 + 1") * Poly::parse("x - 2");
  // The radii strategy reduces up front: its cells isolate the same
  // squarefree part, so the upgrade matches the paper path's cold report.
  const Poly radii_repeated = poly_from_integer_roots({-5, -5, -5, 0, 2, 2});
  const std::pair<Poly, FinderStrategy> cases[] = {
      {repeated, FinderStrategy::kPaper},
      {complexish, FinderStrategy::kPaper},
      {radii_repeated, FinderStrategy::kRadii},
  };
  for (const auto& [p, strategy] : cases) {
    const std::string where =
        p.to_string() + " " + finder_strategy_name(strategy);
    RootFinderConfig cold_cfg;
    cold_cfg.mu_bits = 20;
    ASSERT_TRUE(service.solve(p, 20, strategy).ok) << where;
    cold_cfg.mu_bits = 70;
    const RootReport cold_hi = find_real_roots(p, cold_cfg);
    const auto refined = service.solve(p, 70, strategy);
    ASSERT_TRUE(refined.ok) << refined.error;
    EXPECT_EQ(refined.outcome, CacheOutcome::kHitRefined) << where;
    expect_same_report(refined.report, cold_hi, where);
  }
  EXPECT_EQ(service.stats().hits_refined, 3u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ServiceThreads, ::testing::Values(1, 2, 8),
                         [](const auto& param_info) {
                           std::string name = "T";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(Service, SharedCellBlocksRefineUpgrade) {
  // (64x-1)(64x-3): roots 1/64 and 3/64 share the value ceil(2^2 x) = 1,
  // so the stored cells do not isolate and the upgrade must recompute
  // cold instead of refining a two-root cell.
  const Poly p = Poly::parse("4096x^2 - 256x + 3");
  RootService service(config_for(1));
  const auto lo = service.solve(p, 2);
  ASSERT_TRUE(lo.ok) << lo.error;
  ASSERT_EQ(lo.report.roots.size(), 2u);
  ASSERT_EQ(lo.report.roots[0], lo.report.roots[1]);

  RootFinderConfig cold_cfg;
  cold_cfg.mu_bits = 40;
  const RootReport cold = find_real_roots(p, cold_cfg);
  const auto upgraded = service.solve(p, 40);
  ASSERT_TRUE(upgraded.ok) << upgraded.error;
  EXPECT_EQ(upgraded.outcome, CacheOutcome::kMiss);
  expect_same_report(upgraded.report, cold, "shared-cell fallback");
  const auto s = service.stats();
  EXPECT_EQ(s.refine_fallbacks, 1u);
  EXPECT_EQ(s.hits_refined, 0u);
}

// --- service: eviction, cache-off, invalid input ----------------------------

TEST(Service, ForcedEvictionsRecomputeAndStayIdentical) {
  ServiceConfig cfg = config_for(2, 35);
  cfg.cache_capacity = 2;
  cfg.cache_shards = 1;
  RootService service(cfg);
  const char* inputs[] = {"x^2 - 2", "x^2 - 3", "x^2 - 5"};
  for (const char* s : inputs) ASSERT_TRUE(service.submit(s).ok);
  EXPECT_GE(service.stats().evictions, 1u);
  // The evicted polynomial recomputes (a miss, same bits as before).
  RootFinderConfig cold_cfg;
  cold_cfg.mu_bits = 35;
  const RootReport cold = find_real_roots(Poly::parse("x^2 - 2"), cold_cfg);
  const auto again = service.submit("x^2 - 2");
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.outcome, CacheOutcome::kMiss);
  expect_same_report(again.report, cold, "post-eviction recompute");
  EXPECT_EQ(service.stats().misses, 4u);
}

TEST(Service, CacheDisabledAlwaysMisses) {
  ServiceConfig cfg = config_for(1, 35);
  cfg.cache_enabled = false;
  RootService service(cfg);
  for (int i = 0; i < 3; ++i) {
    const auto r = service.submit("x^2 - 2");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.outcome, CacheOutcome::kMiss);
  }
  const auto s = service.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits_total(), 0u);
  EXPECT_EQ(s.cache_size, 0u);
}

TEST(Service, InvalidRequestsDiagnoseWithoutThrowing) {
  RootService service(config_for(1));
  const auto bad = service.submit("x^2 + 3* - 1");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("position"), std::string::npos) << bad.error;
  const auto constant = service.submit("42");
  EXPECT_FALSE(constant.ok);
  EXPECT_NE(constant.error.find("non-constant"), std::string::npos);
  const auto s = service.stats();
  EXPECT_EQ(s.invalid, 2u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(Service, OversizedMuBitsIsDiagnosedWithoutThrowing) {
  // A 2^60-bit request must be rejected before any 2^mu scaling
  // (BigInt::pow2 would throw std::bad_alloc), and an exception escaping
  // run_batch must not leave a flight behind for the next identical
  // batch to wait on.  ASSERT_NO_THROW stops the test at the first
  // escape instead of hanging on the second call.
  constexpr std::size_t kHuge = std::size_t{1} << 60;
  RootService service(config_for(1));
  ServiceResult r;
  ASSERT_NO_THROW(r = service.submit("x^2 - 2", kHuge));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("mu_bits"), std::string::npos) << r.error;
  ASSERT_NO_THROW(r = service.solve(Poly::parse("x^2 - 2"), kHuge));
  EXPECT_FALSE(r.ok);

  ServiceConfig cfg = config_for(1);
  cfg.finder.mu_bits = kHuge;
  RootService batch_service(cfg);
  for (int call = 0; call < 2; ++call) {
    std::vector<ServiceResult> results;
    ASSERT_NO_THROW(results = batch_service.run_batch({"x^2 - 2"}))
        << "call " << call;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("line 1:"), std::string::npos)
        << results[0].error;
  }
  EXPECT_EQ(service.stats().invalid, 2u);
  EXPECT_EQ(batch_service.stats().invalid, 2u);
  EXPECT_EQ(service.stats().misses + batch_service.stats().misses, 0u);
}

// --- service: in-flight dedup -----------------------------------------------

TEST(Service, ConcurrentIdenticalRequestsComputeOnce) {
  // 8 client threads race the same polynomial; exactly one cold solve
  // may happen, everyone gets identical bits.  (The TSan job runs this
  // against the flights table and cache shards.)
  Prng rng(7);
  const auto input = paper_input(10, rng);
  RootService service(config_for(2, 45));
  constexpr int kClients = 8;
  std::vector<ServiceResult> results(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] { results[static_cast<std::size_t>(t)] =
                                        service.solve(input.poly, 45); });
    }
    for (auto& c : clients) c.join();
  }
  RootFinderConfig cold_cfg;
  cold_cfg.mu_bits = 45;
  const RootReport cold = find_real_roots(input.poly, cold_cfg);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    expect_same_report(r.report, cold, "racing client");
  }
  const auto s = service.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients));
  // Everyone else either joined the flight or hit the fresh cache entry.
  EXPECT_EQ(s.dedup_waits + s.hits_full, static_cast<std::uint64_t>(kClients - 1));
}

TEST(Service, SubmitRacingRunBatchSolvesOnce) {
  // The two entry points share the flights table and the cache: whichever
  // side loses the race either joins the winner's flight or hits the
  // entry it published, so the polynomial is solved exactly once.
  Prng rng(11);
  const std::string text = paper_input(10, rng).poly.to_string();
  RootFinderConfig cold_cfg;
  cold_cfg.mu_bits = 45;
  const RootReport cold = find_real_roots(Poly::parse(text), cold_cfg);
  for (int round = 0; round < 4; ++round) {
    RootService service(config_for(2, 45));
    ServiceResult submitted;
    std::vector<ServiceResult> batched;
    std::atomic<bool> go{false};
    std::jthread client([&] {
      while (!go.load()) std::this_thread::yield();
      submitted = service.submit(text);
    });
    go.store(true);
    batched = service.run_batch({text});
    client.join();
    const std::string where = "round " + std::to_string(round);
    ASSERT_TRUE(submitted.ok) << where << ": " << submitted.error;
    ASSERT_EQ(batched.size(), 1u);
    ASSERT_TRUE(batched[0].ok) << where << ": " << batched[0].error;
    expect_same_report(submitted.report, cold, where + " submit");
    expect_same_report(batched[0].report, cold, where + " run_batch");
    const auto reused = [](const ServiceResult& r) {
      return r.deduplicated || r.outcome == CacheOutcome::kHitFull;
    };
    EXPECT_TRUE(reused(submitted) || reused(batched[0])) << where;
    const auto s = service.stats();
    EXPECT_EQ(s.misses, 1u) << where;
    EXPECT_EQ(s.requests, 2u) << where;
    EXPECT_EQ(s.dedup_waits + s.hits_full, 1u) << where;
  }
}

// --- service: batches -------------------------------------------------------

TEST(Service, BatchReplayMatchesPerCallRuns) {
  // Mixed workload, >= 50% duplicates (the acceptance replay): results
  // must be positionally aligned and bit-identical to per-call runs.
  Prng rng(21);
  std::vector<std::string> uniques;
  for (int trial = 0; trial < 4; ++trial) {
    uniques.push_back(paper_input(5 + trial, rng).poly.to_string());
  }
  std::vector<std::string> lines;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& u : uniques) lines.push_back(u);
  }
  RootService service(config_for(4, 40));
  const auto results = service.run_batch(lines);
  ASSERT_EQ(results.size(), lines.size());
  RootFinderConfig cold_cfg;
  cold_cfg.mu_bits = 40;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << lines[i] << ": " << results[i].error;
    const RootReport cold = find_real_roots(Poly::parse(lines[i]), cold_cfg);
    expect_same_report(results[i].report, cold, lines[i]);
    EXPECT_EQ(results[i].deduplicated, i >= uniques.size()) << i;
  }
  const auto s = service.stats();
  EXPECT_EQ(s.misses, uniques.size());
  EXPECT_EQ(s.batch_dedup, lines.size() - uniques.size());
}

TEST(Service, BatchRepeatsHitTheCache) {
  RootService service(config_for(4, 35));
  const std::vector<std::string> lines = {"x^2 - 2", "x^2 - 3", "x^2 - 5",
                                          "x^3 - 6x^2 + 11x - 6", "x^2 - 7"};
  const auto first = service.run_batch(lines);
  for (const auto& r : first) ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(service.stats().misses, 5u);
  // Replay: pure cache, bit-identical.
  const auto second = service.run_batch(lines);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_TRUE(second[i].ok);
    EXPECT_EQ(second[i].outcome, CacheOutcome::kHitFull);
    expect_same_report(second[i].report, first[i].report, lines[i]);
  }
  EXPECT_EQ(service.stats().misses, 5u);
}

TEST(Service, BatchHandlesDegenerateAndInvalidLines) {
  // One line per special case a cold solve takes (the linear case, the
  // squarefree reduction, the Descartes fallback) plus the two the batch
  // owns: parse errors carry their line number and position, and a
  // duplicate line is answered by the first.
  const std::vector<std::string> lines = {
      "x^2 - 2",
      "2x - 3",                                 // linear: direct solve
      poly_from_integer_roots({2, 2, -1}).to_string(),  // repeated roots
      "x^2 + 1",                                // non-real: fallback
      "3*",                                     // parse error
      "x^2 - 2",                                // batch duplicate
  };
  RootService service(config_for(2, 35));
  const auto results = service.run_batch(lines);
  ASSERT_EQ(results.size(), lines.size());
  RootFinderConfig cold_cfg;
  cold_cfg.mu_bits = 35;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == 4) {
      EXPECT_FALSE(results[i].ok);
      EXPECT_NE(results[i].error.find("line 5:"), std::string::npos)
          << results[i].error;
      EXPECT_NE(results[i].error.find("position"), std::string::npos)
          << results[i].error;
      continue;
    }
    ASSERT_TRUE(results[i].ok) << lines[i] << ": " << results[i].error;
    const RootReport cold = find_real_roots(Poly::parse(lines[i]), cold_cfg);
    expect_same_report(results[i].report, cold, lines[i]);
  }
  EXPECT_TRUE(results[5].deduplicated);
  const auto s = service.stats();
  EXPECT_EQ(s.invalid, 1u);
  EXPECT_EQ(s.batch_dedup, 1u);
  EXPECT_EQ(s.misses, 4u);
}

TEST(Service, BatchHonorsValidate) {
  // RootFinderConfig::validate reaches batch lines too: the Sturm
  // cross-check shows up as extra counted multiplications.
  Prng rng(21);
  std::vector<std::string> lines;
  for (int trial = 0; trial < 4; ++trial) {
    lines.push_back(paper_input(5 + trial, rng).poly.to_string());
  }
  const auto mults = [&](bool validate) {
    ServiceConfig cfg = config_for(4, 40);
    cfg.finder.validate = validate;
    RootService service(cfg);
    instr::reset_all();
    for (const auto& r : service.run_batch(lines)) {
      EXPECT_TRUE(r.ok) << r.error;
    }
    EXPECT_EQ(service.stats().misses, lines.size());
    return instr::aggregate().total().mul_count;
  };
  EXPECT_GT(mults(true), mults(false));
}

// --- finder-strategy keying -------------------------------------------------

TEST(Canonical, StrategyParticipatesInTheRequestHash) {
  const auto paper =
      service::parse_request("x^2 - 2", 53, FinderStrategy::kPaper);
  const auto radii =
      service::parse_request("x^2 - 2", 53, FinderStrategy::kRadii);
  EXPECT_EQ(paper.canonical, radii.canonical);
  EXPECT_NE(paper.hash, radii.hash);
  EXPECT_EQ(paper.hash,
            service::canonical_request_hash(paper.canonical,
                                            FinderStrategy::kPaper));
  EXPECT_EQ(radii.hash,
            service::canonical_request_hash(radii.canonical,
                                            FinderStrategy::kRadii));
}

TEST(ResultCache, StrategyIsPartOfTheEntryIdentity) {
  service::ResultCache cache(4, 1);
  const auto req = service::parse_request("x^2 - 2", 30);
  auto entry = std::make_shared<CacheEntry>();
  entry->canonical = req.canonical;
  entry->refine_poly = req.canonical;
  entry->report.mu = 30;
  entry->strategy = FinderStrategy::kPaper;
  cache.insert(req.hash, entry);
  // Even under the same hash a radii lookup must not see a paper entry.
  EXPECT_NE(cache.find(req.hash, req.canonical, FinderStrategy::kPaper),
            nullptr);
  EXPECT_EQ(cache.find(req.hash, req.canonical, FinderStrategy::kRadii),
            nullptr);
}

TEST(Service, StrategyTaggedRequestsKeepSeparateCacheEntries) {
  RootService service(config_for(1, 40));
  const Poly p = Poly::parse("x^3 - 6x^2 + 11x - 6");
  const auto paper1 = service.solve(p, 40, FinderStrategy::kPaper);
  ASSERT_TRUE(paper1.ok);
  EXPECT_EQ(paper1.outcome, CacheOutcome::kMiss);
  // A radii request for the same polynomial is a different cache identity:
  // it must compute, not serve the paper entry.
  const auto radii1 = service.solve(p, 40, FinderStrategy::kRadii);
  ASSERT_TRUE(radii1.ok);
  EXPECT_EQ(radii1.outcome, CacheOutcome::kMiss);
  EXPECT_NE(radii1.key_hash, paper1.key_hash);
  // Where both strategies apply the answers are bit-identical anyway.
  EXPECT_EQ(radii1.report.roots, paper1.report.roots);
  // Repeats hit their own strategy's entry, including refine upgrades.
  EXPECT_EQ(service.solve(p, 40, FinderStrategy::kPaper).outcome,
            CacheOutcome::kHitFull);
  EXPECT_EQ(service.solve(p, 40, FinderStrategy::kRadii).outcome,
            CacheOutcome::kHitFull);
  const auto upgraded = service.solve(p, 90, FinderStrategy::kRadii);
  EXPECT_EQ(upgraded.outcome, CacheOutcome::kHitRefined);
  expect_same_report(upgraded.report,
                     service.solve(p, 90, FinderStrategy::kPaper).report,
                     "upgrade vs paper cold");
}

TEST(Service, RadiiStrategyServesGeneralInputsAndBatches) {
  // A radii-configured service accepts complex-rooted requests that the
  // paper strategy would push onto its fallback, in batches too.
  ServiceConfig cfg = config_for(2, 40);
  cfg.finder.strategy = FinderStrategy::kRadii;
  cfg.finder.allow_sturm_fallback = false;
  RootService service(cfg);
  const std::vector<std::string> lines = {
      "x^3 - 1", "x^2 - 2", "x^3 - 1", "x^5 - 4x + 2"};
  const auto results = service.run_batch(lines);
  ASSERT_EQ(results.size(), lines.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << lines[i] << ": " << results[i].error;
    EXPECT_FALSE(results[i].report.used_sturm_fallback);
  }
  EXPECT_EQ(results[0].report.roots.size(), 1u);  // x^3 - 1: one real root
  EXPECT_TRUE(results[2].deduplicated);
  // The same requests through submit() now hit the strategy-tagged cache.
  EXPECT_EQ(service.submit("x^3 - 1").outcome, CacheOutcome::kHitFull);
}

}  // namespace
}  // namespace pr
