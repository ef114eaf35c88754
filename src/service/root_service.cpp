#include "service/root_service.hpp"

#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

#include "support/error.hpp"

namespace pr::service {

struct RootService::StatsCells {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> invalid{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> hits_full{0};
  std::atomic<std::uint64_t> hits_derived{0};
  std::atomic<std::uint64_t> hits_refined{0};
  std::atomic<std::uint64_t> refine_fallbacks{0};
  std::atomic<std::uint64_t> dedup_waits{0};
  std::atomic<std::uint64_t> batch_dedup{0};
};

/// One in-flight computation; concurrent identical requests share it
/// through the shared_future instead of re-solving.
struct RootService::Flight {
  Poly canonical;
  std::size_t mu_bits = 0;
  FinderStrategy strategy = FinderStrategy::kPaper;
  std::promise<ServiceResult> promise;
  std::shared_future<ServiceResult> future;
};

RootService::RootService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(std::make_unique<ResultCache>(config_.cache_capacity,
                                           config_.cache_shards)),
      stats_(std::make_unique<StatsCells>()) {}

RootService::~RootService() = default;

ServiceResult RootService::submit(std::string_view text) {
  return submit(text, config_.finder.mu_bits);
}

ServiceResult RootService::submit(std::string_view text,
                                  std::size_t mu_bits) {
  return submit(text, mu_bits, config_.finder.strategy);
}

ServiceResult RootService::submit(std::string_view text, std::size_t mu_bits,
                                  FinderStrategy strategy) {
  stats_->requests += 1;
  CanonicalRequest req;
  try {
    req = parse_request(text, mu_bits, strategy);
  } catch (const Error& e) {
    stats_->invalid += 1;
    ServiceResult out;
    out.error = e.what();
    return out;
  }
  return execute(req);
}

ServiceResult RootService::solve(const Poly& p, std::size_t mu_bits) {
  return solve(p, mu_bits, config_.finder.strategy);
}

ServiceResult RootService::solve(const Poly& p, std::size_t mu_bits,
                                 FinderStrategy strategy) {
  stats_->requests += 1;
  CanonicalRequest req;
  try {
    req = canonicalize(p, mu_bits, strategy);
  } catch (const Error& e) {
    stats_->invalid += 1;
    ServiceResult out;
    out.error = e.what();
    return out;
  }
  return execute(req);
}

ServiceResult RootService::execute(const CanonicalRequest& req) {
  // Fast path: lock-free of the flights table entirely on a usable hit.
  if (config_.cache_enabled) {
    if (auto entry = cache_->find(req.hash, req.canonical, req.strategy)) {
      ServiceResult out;
      if (result_from_entry(entry, req, out)) return out;
    }
  }
  bool winner = false;
  std::shared_ptr<Flight> flight = join_or_create_flight(req, winner);
  if (!winner) {
    stats_->dedup_waits += 1;
    ServiceResult out = flight->future.get();
    out.deduplicated = true;
    return out;
  }
  ServiceResult out;
  try {
    out = compute_miss(req);
  } catch (const Error& e) {
    out = ServiceResult{};
    out.error = e.what();
    out.key_hash = req.hash;
  } catch (...) {
    // Never strand waiters on a broken promise, even for non-library
    // exceptions (bad_alloc and friends).
    out = ServiceResult{};
    out.error = "RootService: request failed with a non-library exception";
    out.key_hash = req.hash;
    fulfill_flight(req, flight, out);
    throw;
  }
  fulfill_flight(req, flight, out);
  return out;
}

ServiceResult RootService::compute_miss(const CanonicalRequest& req) {
  if (config_.cache_enabled) {
    // Double-check under dedup: a racing winner may have published the
    // entry between our fast-path lookup and winning the flight.
    if (auto entry = cache_->find(req.hash, req.canonical, req.strategy)) {
      ServiceResult out;
      if (result_from_entry(entry, req, out)) return out;
      if (try_refine_upgrade(entry, req, out)) return out;
    }
  }
  return finalize_cold(req,
                       cold_run(req.canonical, req.mu_bits, req.strategy));
}

bool RootService::result_from_entry(
    const std::shared_ptr<const CacheEntry>& entry,
    const CanonicalRequest& req, ServiceResult& out) {
  const RootReport& stored = entry->report;
  if (stored.mu == req.mu_bits) {
    out = ServiceResult{};
    out.ok = true;
    out.report = stored;
    out.outcome = CacheOutcome::kHitFull;
    out.key_hash = req.hash;
    stats_->hits_full += 1;
    return true;
  }
  if (stored.mu > req.mu_bits) {
    // Exact downgrade: with y = 2^stored.mu * x and m = 2^(stored.mu - a),
    // ceil(ceil(y)/m) == ceil(y/m) == ceil(2^a x), so dividing the stored
    // integers reproduces a cold run at the lower precision bit for bit.
    RootReport derived = stored;
    const BigInt scale = BigInt::pow2(stored.mu - req.mu_bits);
    for (BigInt& k : derived.roots) k = BigInt::cdiv(k, scale);
    derived.mu = req.mu_bits;
    out = ServiceResult{};
    out.ok = true;
    out.report = std::move(derived);
    out.outcome = CacheOutcome::kHitDerived;
    out.key_hash = req.hash;
    stats_->hits_derived += 1;
    return true;
  }
  return false;  // entry is below the requested precision
}

bool RootService::try_refine_upgrade(
    const std::shared_ptr<const CacheEntry>& entry,
    const CanonicalRequest& req, ServiceResult& out) {
  const RootReport& stored = entry->report;
  if (stored.mu >= req.mu_bits) return false;
  try {
    RootFinderConfig cfg = config_.finder;
    cfg.mu_bits = req.mu_bits;
    ParallelRunResult run = refine_roots_parallel(entry->refine_poly, stored,
                                                  cfg, config_.parallel);
    out = ServiceResult{};
    out.ok = true;
    out.outcome = CacheOutcome::kHitRefined;
    out.key_hash = req.hash;
    stats_->hits_refined += 1;
    if (config_.cache_enabled) {
      auto next = std::make_shared<CacheEntry>();
      next->canonical = entry->canonical;
      next->refine_poly = std::move(run.isolated);
      next->report = run.report;
      next->strategy = entry->strategy;
      cache_->insert(req.hash, std::move(next));
    }
    out.report = std::move(run.report);
    return true;
  } catch (const Error&) {
    // The stored cells do not isolate: two roots closer than 2^-mu share
    // a stored value, or a cell has no sign change.  Only a cold run can
    // answer.
    stats_->refine_fallbacks += 1;
    return false;
  }
}

ServiceResult RootService::finalize_cold(const CanonicalRequest& req,
                                         ParallelRunResult run) {
  stats_->misses += 1;
  ServiceResult out;
  out.ok = true;
  out.outcome = CacheOutcome::kMiss;
  out.key_hash = req.hash;
  if (config_.cache_enabled) {
    auto entry = std::make_shared<CacheEntry>();
    entry->canonical = req.canonical;
    // What a later refine sharpens: the polynomial the cold run isolated
    // -- the squarefree part when it reduced, the canonical input itself
    // otherwise.
    entry->refine_poly = std::move(run.isolated);
    entry->report = run.report;
    entry->strategy = req.strategy;
    cache_->insert(req.hash, std::move(entry));
  }
  out.report = std::move(run.report);
  return out;
}

ParallelRunResult RootService::cold_run(const Poly& canonical,
                                        std::size_t mu_bits,
                                        FinderStrategy strategy) {
  RootFinderConfig cfg = config_.finder;
  cfg.mu_bits = mu_bits;
  cfg.strategy = strategy;
  return find_real_roots_parallel(canonical, cfg, config_.parallel);
}

std::shared_ptr<RootService::Flight> RootService::join_or_create_flight(
    const CanonicalRequest& req, bool& winner) {
  std::lock_guard<std::mutex> lock(flights_mutex_);
  auto& bucket = flights_[req.hash];
  for (const auto& flight : bucket) {
    if (flight->mu_bits == req.mu_bits && flight->strategy == req.strategy &&
        flight->canonical == req.canonical) {
      winner = false;
      return flight;
    }
  }
  auto flight = std::make_shared<Flight>();
  flight->canonical = req.canonical;
  flight->mu_bits = req.mu_bits;
  flight->strategy = req.strategy;
  flight->future = flight->promise.get_future().share();
  bucket.push_back(flight);
  winner = true;
  return flight;
}

void RootService::fulfill_flight(const CanonicalRequest& req,
                                 const std::shared_ptr<Flight>& flight,
                                 const ServiceResult& result) {
  {
    // Retire the flight before publishing: a request arriving after this
    // point starts fresh and hits the cache entry inserted above.
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto it = flights_.find(req.hash);
    if (it != flights_.end()) {
      auto& bucket = it->second;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i] == flight) {
          bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      if (bucket.empty()) flights_.erase(it);
    }
  }
  flight->promise.set_value(result);
}

std::vector<ServiceResult> RootService::run_batch(
    const std::vector<std::string>& lines) {
  std::vector<ServiceResult> results(lines.size());

  struct Unit {
    CanonicalRequest req;
    std::vector<std::size_t> positions;  // line indices sharing this poly
  };
  std::vector<Unit> units;

  // Parse, validate, and collapse duplicate lines onto one unit each.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    stats_->requests += 1;
    CanonicalRequest req;
    try {
      req = parse_request(lines[i], config_.finder.mu_bits,
                          config_.finder.strategy);
    } catch (const Error& e) {
      stats_->invalid += 1;
      results[i].error =
          "line " + std::to_string(i + 1) + ": " + e.what();
      continue;
    }
    bool merged = false;
    for (Unit& u : units) {
      if (u.req.hash == req.hash && u.req.canonical == req.canonical) {
        u.positions.push_back(i);
        stats_->batch_dedup += 1;
        merged = true;
        break;
      }
    }
    if (!merged) units.push_back({std::move(req), {i}});
  }

  // Each distinct line takes the same path as submit(); repeats of a line
  // within the batch are reported as deduplicated.
  for (const Unit& u : units) {
    const ServiceResult result = execute(u.req);
    for (std::size_t k = 0; k < u.positions.size(); ++k) {
      results[u.positions[k]] = result;
      if (k > 0) results[u.positions[k]].deduplicated = true;
    }
  }
  return results;
}

ServiceStats RootService::stats() const {
  ServiceStats s;
  s.requests = stats_->requests.load();
  s.invalid = stats_->invalid.load();
  s.misses = stats_->misses.load();
  s.hits_full = stats_->hits_full.load();
  s.hits_derived = stats_->hits_derived.load();
  s.hits_refined = stats_->hits_refined.load();
  s.refine_fallbacks = stats_->refine_fallbacks.load();
  s.dedup_waits = stats_->dedup_waits.load();
  s.batch_dedup = stats_->batch_dedup.load();
  s.evictions = cache_->evictions();
  s.cache_size = cache_->size();
  return s;
}

}  // namespace pr::service
