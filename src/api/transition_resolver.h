// TransitionResolver: the one keyed resolver behind every serving mode's
// transition lookups.
//
// Both whole-graph engines (D2prEngine) and the edge-partitioned router
// (EngineRouter) resolve a TransitionKey through three layers:
//
//   1. an in-memory SingleFlightLru of shared, immutable matrices,
//   2. a persistent TransitionStore spill layer (mmap-backed load before
//      any rebuild, write-through spill after one),
//   3. the O(|E|) TransitionMatrix::Build cold path.
//
// Concurrent misses on one key are single-flighted by the LRU: the first
// requester loads or builds while the rest wait and then take the cache
// hit, so a key is never built twice. The top-k DegreeBoundIndex derived
// from a matrix is cached the same way, in its own SingleFlightLru. A
// matrix is O(|V|) factors (core/transition.h), so the partitioned
// solve's TransitionSlices share it and need no cache of their own.
//
// Thread-safety: Resolve is safe from any number of threads. No lock is
// held across a load, build or spill, so distinct keys proceed in
// parallel.

#ifndef D2PR_API_TRANSITION_RESOLVER_H_
#define D2PR_API_TRANSITION_RESOLVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/transition_store.h"
#include "common/result.h"
#include "common/single_flight_lru.h"
#include "core/transition.h"
#include "graph/csr_graph.h"
#include "topk/degree_bound.h"

namespace d2pr {

/// \brief What a resolver (and the engine owning it) may do with the
/// persistent transition store rooted at its cache_dir.
enum class PersistMode {
  kOff,        ///< Never touch the store, even when cache_dir is set.
  kReadOnly,   ///< Map persisted matrices; never write files.
  kWriteOnly,  ///< Spill built matrices; never read (store (re)builder).
  kReadWrite,  ///< Both (the serving default).
};

/// \brief Transition resolution knobs: D2prEngine's construction options,
/// which it forwards to its resolver verbatim (as EngineRouter forwards
/// RouterOptions::engine_options).
struct EngineOptions {
  /// Max TransitionMatrix instances kept alive, each O(|V|) factors. The
  /// default comfortably holds the paper's p grid (17 points) plus tuner
  /// refinement probes.
  /// 0 disables caching (and with it single-flight — waiting would
  /// serialize N independent builds that can never land anywhere).
  size_t transition_cache_capacity = 32;
  /// Directory of the persistent transition store (see
  /// api/transition_store.h). Empty (the default) disables persistence
  /// entirely; engines sharing one graph may share one directory.
  std::string cache_dir;
  /// Store permissions; ignored while cache_dir is empty.
  PersistMode persist_mode = PersistMode::kReadWrite;
  /// Precomputed GraphFingerprint of the resolver's graph; 0 = compute at
  /// construction when a store is attached. Set it when an already
  /// fingerprinted graph backs another resolver (tools/d2pr_rank passes
  /// its engine's to the EngineRouter) so the edge arrays hash once.
  /// Trusted in release builds — passing another graph's fingerprint
  /// would defeat the store's cross-graph replay gate — so debug builds
  /// verify it against the graph.
  uint64_t precomputed_graph_fingerprint = 0;
};

/// \brief Keyed cache + store + build resolution with single-flight
/// deduplication, shared by every serving front end.
class TransitionResolver {
 public:
  /// What one Resolve call did, for the owner's counter accounting
  /// (exactly one of cache_hit / store_hit / built is set on success).
  struct Outcome {
    bool cache_hit = false;  ///< Served from the in-memory LRU.
    bool store_hit = false;  ///< Mapped from the persistent store.
    bool built = false;      ///< TransitionMatrix::Build was invoked.
    bool spilled = false;    ///< A write-through spill succeeded.
  };

  TransitionResolver(std::shared_ptr<const CsrGraph> graph,
                     const EngineOptions& options);

  /// \brief Returns the transition for `key`: cached, else mapped from
  /// the persistent store (readable modes), else built — and spilled back
  /// under write-through. Concurrent misses on one key are
  /// single-flighted.
  Result<std::shared_ptr<const TransitionMatrix>> Resolve(
      const TransitionKey& key, Outcome* outcome);

  /// \brief Returns the DegreeBoundIndex for `key`'s transition — the
  /// per-node score upper bounds the top-k solver prunes with — building
  /// it once per key and caching it alongside the transition (same
  /// capacity, LRU, single-flighted misses). Building is O(|E|), ~100x
  /// cheaper than the transition build it rides behind, but still worth
  /// never paying twice on the serving path. `transition` must be the
  /// matrix Resolve returned for the same key.
  std::shared_ptr<const DegreeBoundIndex> ResolveBounds(
      const TransitionKey& key,
      const std::shared_ptr<const TransitionMatrix>& transition);

  /// Drops cached transitions (counters are kept).
  void Clear();

  /// True when a persistent store is attached (cache_dir set and
  /// persist_mode != kOff).
  bool store_enabled() const { return store_ != nullptr; }
  bool store_readable() const {
    return store_ != nullptr &&
           (options_.persist_mode == PersistMode::kReadOnly ||
            options_.persist_mode == PersistMode::kReadWrite);
  }
  bool store_writable() const {
    return store_ != nullptr &&
           (options_.persist_mode == PersistMode::kWriteOnly ||
            options_.persist_mode == PersistMode::kReadWrite);
  }

  /// The graph's store fingerprint; 0 when no store is attached.
  uint64_t graph_fingerprint() const { return graph_fingerprint_; }

  /// Cumulative counters (atomic; each individually exact under
  /// concurrent Resolve calls). builds() counts Build attempts, matching
  /// the engine's historical accounting.
  int64_t builds() const { return builds_.load(std::memory_order_relaxed); }
  int64_t store_loads() const {
    return store_loads_.load(std::memory_order_relaxed);
  }
  int64_t store_saves() const {
    return store_saves_.load(std::memory_order_relaxed);
  }
  /// DegreeBoundIndex::Build invocations (cache misses in ResolveBounds).
  int64_t bound_builds() const {
    return bound_builds_.load(std::memory_order_relaxed);
  }

  /// Matrix cache passthroughs (see SingleFlightLru). Keys are most
  /// recently used first; the lookup counters count every lookup,
  /// including a waiter's re-check after a single-flight build.
  std::vector<TransitionKey> CachedKeys() const { return matrices_.Keys(); }
  int64_t cache_lookup_hits() const { return matrices_.hits(); }
  int64_t cache_lookup_misses() const { return matrices_.misses(); }

 private:
  std::shared_ptr<const CsrGraph> graph_;
  EngineOptions options_;
  SingleFlightLru<TransitionKey, std::shared_ptr<const TransitionMatrix>>
      matrices_;
  /// Derived per-key artifacts, each behind its own lock so a slow
  /// matrix build never stalls a lookup here. Same capacity as matrices_.
  SingleFlightLru<TransitionKey, std::shared_ptr<const DegreeBoundIndex>>
      bounds_;

  /// Persistent spill layer; null unless cache_dir names a directory and
  /// persist_mode allows any access.
  std::unique_ptr<TransitionStore> store_;
  uint64_t graph_fingerprint_ = 0;  ///< Computed once when store_ is set.

  std::atomic<int64_t> builds_{0};
  std::atomic<int64_t> store_loads_{0};
  std::atomic<int64_t> store_saves_{0};
  std::atomic<int64_t> bound_builds_{0};
};

}  // namespace d2pr

#endif  // D2PR_API_TRANSITION_RESOLVER_H_
