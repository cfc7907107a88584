// ScoreCache: a request-keyed memo of full RankResponses with LFU
// eviction at a fixed entry budget.
//
// Serving traffic is heavily repetitive — dashboards re-request the same
// global ranking, recommenders re-rank the same hot users — and a D2PR
// solve is deterministic given the graph and the request, so an identical
// request can be answered from memory without touching a solver. The
// cache stores the complete response (scores plus diagnostics) keyed by a
// canonical serialization of every response-affecting request field.
// An engine's graph is immutable, so an entry never goes stale; it
// leaves only to make room.
//
// Eviction is LFU: at capacity, the least-frequently-used entry goes
// first (ties broken by oldest insertion), keeping the hot head of a
// skewed query distribution resident.
//
// Thread-safe.

#ifndef D2PR_SERVE_SCORE_CACHE_H_
#define D2PR_SERVE_SCORE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "api/rank_request.h"

namespace d2pr {

/// \brief Cumulative ScoreCache counters (snapshot by value).
struct ScoreCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;  ///< LFU evictions at the entry budget.
};

/// \brief LFU memo of RankResponses keyed by canonical request.
class ScoreCache {
 public:
  /// `capacity` is the maximum number of resident responses; 0 disables
  /// the cache (every Lookup misses, Insert is a no-op).
  explicit ScoreCache(size_t capacity);

  /// Canonical serialization of every field of `request` that affects its
  /// response. Requests that are semantically identical map to one key.
  /// The warm-start tag is deliberately excluded: warm-started responses
  /// depend on engine trajectory state and must not be memoized —
  /// ServingRuntime bypasses the cache for them.
  static std::string KeyFor(const RankRequest& request);

  /// Returns a copy of the stored response, bumping the entry's use
  /// count and counting a hit; nullopt on miss, which is not counted: a
  /// caller may look up more than once for one request (a single-flight
  /// waiter does), so it counts its one miss with CountMiss when it goes
  /// on to solve.
  std::optional<RankResponse> Lookup(const std::string& key);
  void CountMiss();

  /// True when a response is resident under `key`. Counts nothing and
  /// leaves the entry's use count alone.
  bool Contains(const std::string& key) const;

  /// Stores (or refreshes) `response` under `key`, LFU-evicting first
  /// when a new key would exceed the capacity. A refresh keeps the
  /// entry's use count and evicts nothing.
  void Insert(const std::string& key, RankResponse response);

  ScoreCacheStats stats() const;
  size_t size() const;
  /// True when the capacity admits entries. Serving layers gate their
  /// lookup/insert path on this.
  bool enabled() const { return capacity_ > 0; }

 private:
  struct Entry {
    /// Shared + immutable so Lookup can copy the (O(num_nodes)) payload
    /// outside the mutex instead of serializing workers behind it.
    std::shared_ptr<const RankResponse> response;
    int64_t uses = 0;  ///< Lookups served since insertion.
    int64_t sequence = 0;  ///< Insertion order, LFU tie-break.
  };

  /// Evicts the LFU entry (ties to oldest); caller holds mu_ and
  /// guarantees the cache is non-empty.
  void EvictOne();

  const size_t capacity_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  int64_t next_sequence_ = 0;
  ScoreCacheStats stats_;
};

}  // namespace d2pr

#endif  // D2PR_SERVE_SCORE_CACHE_H_
