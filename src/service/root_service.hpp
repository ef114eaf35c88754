// RootService: the request driver over the root-finding library.
//
// The library solves one polynomial per call; production traffic is a
// stream of concurrent, often-repeated queries.  Following the paratreet
// Driver/CacheManager split, this layer is a thin orchestrator over the
// existing machinery:
//
//   request text --> parse/validate --> canonicalize (service/canonical)
//       --> ResultCache lookup (full hit / derived hit / refine upgrade)
//       --> in-flight dedup (identical concurrent requests share one run)
//       --> cold solve: one find_real_roots_parallel call, i.e. one task
//           graph on its own central-queue TaskPool.
//
// submit(), solve() and every distinct line of run_batch() take this same
// path; run_batch only adds the parse of its lines and the collapse of
// duplicate lines within the batch.
//
// Cache semantics (all results bit-identical to a per-call cold run):
//   * full hit      -- same polynomial, same mu: the stored report.
//   * derived hit   -- same polynomial, LOWER mu: ceil(2^a x) is derived
//                      exactly from the stored ceil(2^b x), b > a, via
//                      ceil(ceil(y)/m) == ceil(y/m).
//   * refine upgrade -- same polynomial, HIGHER mu: re-enters at
//                      refine_root on the stored isolating cells instead
//                      of recomputing the remainder sequence and tree;
//                      falls back to a cold run when the stored cells do
//                      not isolate (two roots sharing a cell at the old
//                      precision).  The upgraded report replaces the
//                      cache entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/root_finder.hpp"
#include "service/canonical.hpp"
#include "service/result_cache.hpp"

namespace pr::service {

struct ServiceConfig {
  /// Per-request solver settings; finder.mu_bits is the default precision
  /// for requests that do not specify their own.
  RootFinderConfig finder;
  /// Cold-solve execution: thread count and grain.
  ParallelConfig parallel;
  bool cache_enabled = true;
  std::size_t cache_capacity = 1024;
  std::size_t cache_shards = 8;
};

/// How a request's result was produced.
enum class CacheOutcome {
  kMiss,        ///< cold solve (remainder sequence + tree)
  kHitFull,     ///< stored report returned as-is
  kHitDerived,  ///< exact ceiling-division downgrade of a stored report
  kHitRefined,  ///< refine_root upgrade of stored isolating cells
};

struct ServiceResult {
  bool ok = false;
  /// Parse/validation diagnostic (includes input position and text).
  std::string error;
  RootReport report;
  CacheOutcome outcome = CacheOutcome::kMiss;
  /// True iff this request waited on (or joined) an identical request
  /// already in flight instead of doing its own work.
  bool deduplicated = false;
  std::uint64_t key_hash = 0;
};

/// Monotonic counters; snapshot via RootService::stats().
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t invalid = 0;        ///< parse/validation rejections
  std::uint64_t misses = 0;         ///< cold solver executions
  std::uint64_t hits_full = 0;
  std::uint64_t hits_derived = 0;
  std::uint64_t hits_refined = 0;
  std::uint64_t refine_fallbacks = 0;  ///< upgrade demoted to cold solve
  std::uint64_t dedup_waits = 0;    ///< joined an in-flight identical run
  std::uint64_t batch_dedup = 0;    ///< duplicate lines within one batch
  std::uint64_t evictions = 0;
  std::uint64_t cache_size = 0;

  std::uint64_t hits_total() const {
    return hits_full + hits_derived + hits_refined;
  }
};

class RootService {
 public:
  explicit RootService(ServiceConfig config = {});
  ~RootService();
  RootService(const RootService&) = delete;
  RootService& operator=(const RootService&) = delete;

  /// One request at the default precision / an explicit precision /
  /// an explicit finder strategy (overriding config().finder.strategy;
  /// the strategy is part of the cache identity, so requests under
  /// different strategies never share an entry).
  /// Never throws on bad input: rejections (parse errors, constant
  /// polynomials, mu_bits above kMaxMuBits) come back as !ok results.
  /// Safe to call from any number of threads concurrently.
  ServiceResult submit(std::string_view text);
  ServiceResult submit(std::string_view text, std::size_t mu_bits);
  ServiceResult submit(std::string_view text, std::size_t mu_bits,
                       FinderStrategy strategy);
  /// Pre-parsed entry point (same pipeline minus the parse).
  ServiceResult solve(const Poly& p, std::size_t mu_bits);
  ServiceResult solve(const Poly& p, std::size_t mu_bits,
                      FinderStrategy strategy);

  /// One request line per element, all at the default precision.
  /// Duplicates inside the batch collapse onto one computation; each
  /// distinct line then runs exactly as submit() would, one after the
  /// other.  Results are positionally aligned with `lines`.
  std::vector<ServiceResult> run_batch(const std::vector<std::string>& lines);

  ServiceStats stats() const;
  const ServiceConfig& config() const { return config_; }

 private:
  struct Flight;
  struct StatsCells;

  ServiceResult execute(const CanonicalRequest& req);
  ServiceResult compute_miss(const CanonicalRequest& req);
  /// Full or derived hit from `entry`, or no value if the request needs
  /// an upgrade (entry precision below the request's).
  bool result_from_entry(const std::shared_ptr<const CacheEntry>& entry,
                         const CanonicalRequest& req, ServiceResult& out);
  /// Refine-upgrade attempt; false (with the fallback counted) when the
  /// stored cells do not isolate or refinement fails.
  bool try_refine_upgrade(const std::shared_ptr<const CacheEntry>& entry,
                          const CanonicalRequest& req, ServiceResult& out);
  ServiceResult finalize_cold(const CanonicalRequest& req,
                              ParallelRunResult run);
  ParallelRunResult cold_run(const Poly& canonical, std::size_t mu_bits,
                             FinderStrategy strategy);

  std::shared_ptr<Flight> join_or_create_flight(const CanonicalRequest& req,
                                                bool& winner);
  void fulfill_flight(const CanonicalRequest& req,
                      const std::shared_ptr<Flight>& flight,
                      const ServiceResult& result);

  ServiceConfig config_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<StatsCells> stats_;

  std::mutex flights_mutex_;
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<Flight>>>
      flights_;
};

}  // namespace pr::service
