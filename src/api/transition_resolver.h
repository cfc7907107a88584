// TransitionResolver: the one keyed resolver behind every serving mode's
// transition lookups.
//
// Both whole-graph engines (D2prEngine) and the edge-partitioned router
// mode (EngineRouter::kPartitionedSubgraph) need the same three-layer
// resolution for a TransitionKey:
//
//   1. an in-memory LRU TransitionCache (shared_ptr entries, O(1)-ish),
//   2. a persistent TransitionStore spill layer (mmap-backed load before
//      any rebuild, write-through or lazy spill after one),
//   3. the O(|E|) TransitionMatrix::Build cold path,
//
// with concurrent misses on one key single-flighted: the first requester
// loads or builds while the rest wait on a condition variable and then
// take the cache hit, so a key is never built twice. Until this class
// existed, D2prEngine::GetTransition and EngineRouter::PartitionTransition
// carried duplicated copies of that whole discipline; each new metric or
// concurrency fix had to land twice. Now both own a TransitionResolver and
// the logic lives once (the ROADMAP's unlocking refactor for the
// multi-metric engine).
//
// Thread-safety: Resolve is safe from any number of threads. The internal
// mutex guards only the in-flight key list — never a load, build, or
// spill — so distinct keys proceed in parallel.

#ifndef D2PR_API_TRANSITION_RESOLVER_H_
#define D2PR_API_TRANSITION_RESOLVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/transition_cache.h"
#include "api/transition_store.h"
#include "common/result.h"
#include "core/transition.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"
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

/// \brief When a writable resolver spills newly built matrices.
enum class PersistPolicy {
  /// Persist each matrix right after its build, on the building thread.
  /// Restart-safe by construction; adds one file write to each cold
  /// build.
  kWriteThrough,
  /// Persist only on PersistCached() and at destruction (the owning
  /// engine's flush points). Keeps the serving path free of writes, at
  /// two costs: matrices built since the last flush are lost on a crash,
  /// and a matrix evicted from the in-memory LRU before a flush is never
  /// spilled at all (only resident matrices can be).
  kLazy,
};

/// \brief TransitionResolver construction knobs (the persistence subset of
/// EngineOptions, which D2prEngine forwards verbatim).
struct TransitionResolverOptions {
  /// Max TransitionMatrix instances kept alive; 0 disables caching (and
  /// with it single-flight — waiting would serialize N independent
  /// builds that can never land anywhere).
  size_t cache_capacity = 32;
  /// Directory of the persistent transition store; empty disables
  /// persistence entirely.
  std::string cache_dir;
  /// Store permissions; ignored while cache_dir is empty.
  PersistMode persist_mode = PersistMode::kReadWrite;
  /// Spill timing for writable modes.
  PersistPolicy persist_policy = PersistPolicy::kWriteThrough;
  /// Verify store payload checksums on load (forwarded to the store).
  bool verify_checksums = true;
  /// Precomputed GraphFingerprint of the resolver's graph; 0 = compute at
  /// construction when a store is attached. Fleets over one shared graph
  /// pass it in so the edge arrays hash once, not once per resolver.
  /// Trusted in release builds — debug builds verify it.
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
                     const TransitionResolverOptions& options);

  /// \brief Returns the transition for `key`: cached, else mapped from
  /// the persistent store (readable modes), else built — and spilled back
  /// under write-through. Concurrent misses on one key are
  /// single-flighted.
  Result<std::shared_ptr<const TransitionMatrix>> Resolve(
      const TransitionKey& key, Outcome* outcome);

  /// \brief Returns the per-shard transition slices for `key` under
  /// `partition` — what the sliced block solvers stream
  /// (core/transition_slices.h). Slices are cached alongside the
  /// transition (same capacity, MRU, single-flighted misses) and keyed by
  /// TransitionKey alone: a resolver serves exactly one partition (its
  /// owner's), so callers must pass the same partition on every call.
  ///
  /// Persistence contract: slices have NO sections of their own in the
  /// TransitionStore. The whole-graph matrix is resolved first — cache,
  /// store, spill, and every Outcome / counter observable exactly as
  /// Resolve — and the slices are a cheap permutation of it, rebuilt
  /// after any cache eviction.
  Result<std::shared_ptr<const TransitionSlices>> ResolveSlices(
      const TransitionKey& key, const GraphPartition& partition,
      Outcome* outcome);

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

  /// \brief Spills every currently cached transition to the store
  /// (skipping keys already persisted, except keys built under kLazy
  /// since the last flush, which are (re)written so a rebuilt-after-
  /// rejection matrix replaces its corrupt file). `saves`, when non-null,
  /// receives the number of successful writes. FailedPrecondition when no
  /// writable store is attached; otherwise the first spill error, or OK.
  Status PersistCached(int64_t* saves);

  /// Drops cached transitions (counters are kept). Under kLazy, dropped
  /// matrices not yet spilled are lost.
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
  /// Slice constructions (cache misses in ResolveSlices).
  int64_t slice_builds() const {
    return slice_builds_.load(std::memory_order_relaxed);
  }

  /// Cache passthroughs (see TransitionCache).
  size_t cache_capacity() const { return cache_.capacity(); }
  std::vector<TransitionKey> CachedKeys() const { return cache_.Keys(); }
  int64_t cache_lookup_hits() const { return cache_.hits(); }
  int64_t cache_lookup_misses() const { return cache_.misses(); }

 private:
  std::shared_ptr<const CsrGraph> graph_;
  TransitionResolverOptions options_;
  TransitionCache cache_;

  /// Persistent spill layer; null unless cache_dir names a directory and
  /// persist_mode allows any access.
  std::unique_ptr<TransitionStore> store_;
  uint64_t graph_fingerprint_ = 0;  ///< Computed once when store_ is set.

  std::mutex persist_mu_;  ///< Guards unspilled_keys_.
  /// Keys built (not loaded) under PersistPolicy::kLazy and not yet
  /// flushed. PersistCached saves these even when a store file already
  /// exists, so a rebuilt-after-rejection matrix replaces its corrupt
  /// file instead of being skipped.
  std::vector<TransitionKey> unspilled_keys_;

  /// Guards building_keys_: the keys with a transition build in flight.
  std::mutex build_mu_;
  std::condition_variable build_cv_;
  std::vector<TransitionKey> building_keys_;

  /// Guards the bound-index cache and its in-flight key list. Separate
  /// from build_mu_ so a slow transition build never stalls a bounds
  /// lookup for an unrelated key.
  std::mutex bounds_mu_;
  std::condition_variable bounds_cv_;
  /// MRU-first list, capped at cache_capacity; linear scans are fine at
  /// the same small capacities TransitionCache runs at.
  std::vector<std::pair<TransitionKey, std::shared_ptr<const DegreeBoundIndex>>>
      bounds_cache_;
  std::vector<TransitionKey> bounds_building_;

  /// Guards the slice cache and its in-flight key list; same shape and
  /// rationale as the bounds cache above.
  std::mutex slices_mu_;
  std::condition_variable slices_cv_;
  std::vector<std::pair<TransitionKey, std::shared_ptr<const TransitionSlices>>>
      slices_cache_;
  std::vector<TransitionKey> slices_building_;

  std::atomic<int64_t> builds_{0};
  std::atomic<int64_t> store_loads_{0};
  std::atomic<int64_t> store_saves_{0};
  std::atomic<int64_t> bound_builds_{0};
  std::atomic<int64_t> slice_builds_{0};
};

}  // namespace d2pr

#endif  // D2PR_API_TRANSITION_RESOLVER_H_
