// Concurrent memoization cache for the RootService.
//
// Modeled on the paratreet CacheManager split: workers (here: solver
// runs) produce immutable payloads, a shared structure serves repeated
// requests without re-entering the compute path.  Entries are immutable
// once published (shared_ptr<const CacheEntry>), so readers never hold a
// lock while using a result; an upgrade (same polynomial at higher
// precision) REPLACES the entry rather than mutating it.
//
// The table is sharded by key hash: each shard owns an independent mutex,
// an exact-match chain (hash collisions are resolved by comparing the
// canonical polynomial, never trusted blindly) and its own LRU list, so
// concurrent requests for different polynomials contend only 1/shards of
// the time.  Capacity is enforced per shard (capacity/shards each,
// minimum 1), which bounds total memory without a global clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "core/root_finder.hpp"
#include "poly/poly.hpp"

namespace pr::service {

/// One memoized result: the full report at entry-report precision plus
/// the partial artifacts a higher-precision repeat re-enters at
/// refine_root with (the polynomial whose simple roots the report's
/// cells isolate, the cold run's ParallelRunResult::isolated -- the
/// squarefree part when it reduced, otherwise the canonical input
/// itself).  report.roots at scale
/// report.mu ARE the isolating cells ((k-1)/2^mu, k/2^mu], so storing the
/// report stores the isolating intervals; the remainder sequence is
/// deliberately not retained (refine_root never reads it, and it is
/// O(n^2) coefficients of dead weight per entry).
struct CacheEntry {
  Poly canonical;     ///< the cache key's exact identity
  Poly refine_poly;   ///< squarefree: what refine_root sharpens
  RootReport report;  ///< cold-path report at precision report.mu
  /// Strategy the report was computed under; part of the exact identity
  /// (the strategies accept different input classes).
  FinderStrategy strategy = FinderStrategy::kPaper;
};

/// Sharded LRU map: canonical polynomial -> CacheEntry.
class ResultCache {
 public:
  /// `capacity` entries total (rounded up to >= 1 per shard);
  /// `shards` >= 1 independent lock domains.
  explicit ResultCache(std::size_t capacity, std::size_t shards = 8);

  /// Exact lookup; returns the entry (and freshens its LRU position) or
  /// nullptr.  The returned entry is immutable and safe to use without
  /// further synchronization.
  std::shared_ptr<const CacheEntry> find(
      std::uint64_t hash, const Poly& canonical,
      FinderStrategy strategy = FinderStrategy::kPaper);

  /// Publishes `entry` under (hash, entry->canonical), replacing any
  /// existing entry for the same polynomial (the upgrade path) and
  /// evicting the shard's least-recently-used entry on overflow.
  void insert(std::uint64_t hash, std::shared_ptr<const CacheEntry> entry);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const;

 private:
  struct Item {
    std::uint64_t hash = 0;
    std::shared_ptr<const CacheEntry> entry;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Item> lru;  // front = most recently used
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(std::uint64_t hash) {
    return shards_[static_cast<std::size_t>(hash) % shards_.size()];
  }

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace pr::service
