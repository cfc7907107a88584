#include "api/transition_resolver.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "core/transition_slices.h"
#include "graph/graph_fingerprint.h"

namespace d2pr {

TransitionResolver::TransitionResolver(std::shared_ptr<const CsrGraph> graph,
                                       const TransitionResolverOptions& options)
    : graph_(std::move(graph)),
      options_(options),
      cache_(options.cache_capacity) {
  if (!options_.cache_dir.empty() &&
      options_.persist_mode != PersistMode::kOff) {
    TransitionStoreOptions store_options;
    store_options.verify_payload_checksums = options_.verify_checksums;
    store_ = std::make_unique<TransitionStore>(options_.cache_dir,
                                               store_options);
    // O(|E|) once per graph — noise next to a single transition build,
    // and it gates every store file against this exact graph. Callers
    // standing up many resolvers over one graph pass it in precomputed.
    graph_fingerprint_ = options_.precomputed_graph_fingerprint != 0
                             ? options_.precomputed_graph_fingerprint
                             : GraphFingerprint(*graph_);
    // A wrong precomputed fingerprint would let the store replay another
    // graph's matrices; catch the caller mistake where builds can afford
    // the re-hash.
    D2PR_DCHECK(options_.precomputed_graph_fingerprint == 0 ||
                graph_fingerprint_ == GraphFingerprint(*graph_))
        << "precomputed_graph_fingerprint does not match this graph";
  }
}

Result<std::shared_ptr<const TransitionMatrix>> TransitionResolver::Resolve(
    const TransitionKey& key, Outcome* outcome) {
  *outcome = Outcome{};
  // Single-flight only pays off when the finished matrix lands in the
  // cache for the waiters; with caching disabled, waiting would turn N
  // independent builds into N serialized ones.
  const bool single_flight = cache_.capacity() > 0;
  if (single_flight) {
    std::unique_lock<std::mutex> lock(build_mu_);
    for (;;) {
      if (auto cached = cache_.Lookup(key)) {
        outcome->cache_hit = true;
        return cached;
      }
      // Someone else is loading or building this key: wait for them
      // instead of paying the work twice, then re-check the cache.
      if (std::find(building_keys_.begin(), building_keys_.end(), key) ==
          building_keys_.end()) {
        break;
      }
      build_cv_.wait(lock);
    }
    building_keys_.push_back(key);
  }

  Status error;
  std::shared_ptr<const TransitionMatrix> shared;

  // Spill layer first: mapping a persisted matrix is O(1) against the
  // O(|E|) rebuild. A missing file is the expected cold path; a rejected
  // file (wrong graph, corruption, version skew) is surfaced loudly but
  // never used — the rebuild below always produces a correct matrix.
  if (store_readable()) {
    auto loaded = store_->Load(graph_fingerprint_, key, graph_->num_nodes(),
                               graph_->num_arcs());
    if (loaded.ok()) {
      outcome->store_hit = true;
      ++store_loads_;
      shared = std::move(loaded).value();
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      D2PR_LOG(Warning) << "transition store rejected; rebuilding: "
                        << loaded.status().ToString();
    }
  }

  bool built_fresh = false;
  if (shared == nullptr) {
    TransitionConfig config;
    config.p = key.p;
    config.beta = key.beta;
    config.metric = key.metric;
    outcome->built = true;
    ++builds_;
    Result<TransitionMatrix> built = TransitionMatrix::Build(*graph_, config);
    if (built.ok()) {
      shared =
          std::make_shared<const TransitionMatrix>(std::move(built).value());
      built_fresh = true;
    } else {
      error = built.status();
    }
  }

  if (single_flight) {
    {
      std::lock_guard<std::mutex> lock(build_mu_);
      std::erase(building_keys_, key);
      if (shared != nullptr) cache_.Insert(key, shared);
    }
    // Wake waiters whether the load/build succeeded (they will hit the
    // cache) or failed (one of them retries and reports the same error).
    build_cv_.notify_all();
  }

  // Spill after releasing the single-flight slot: waiters need the
  // matrix, not the file, so the disk write must not sit on their
  // critical path.
  if (built_fresh && store_writable()) {
    // With the cache on, a key builds at most once per process, so the
    // unconditional write doubles as repair of a rejected (corrupt)
    // file. With the cache off every request rebuilds; skip the spill
    // when the file already exists or each query would pay a full
    // rewrite (at the cost of not healing corrupt files in that
    // degenerate configuration).
    const bool spill_write_through =
        options_.persist_policy == PersistPolicy::kWriteThrough &&
        (single_flight || !store_->Contains(graph_fingerprint_, key));
    if (spill_write_through) {
      const Status saved = store_->Save(graph_fingerprint_, key, *shared);
      if (saved.ok()) {
        outcome->spilled = true;
        ++store_saves_;
      } else {
        D2PR_LOG(Warning) << "transition store spill failed: "
                          << saved.ToString();
      }
    } else if (options_.persist_policy == PersistPolicy::kLazy) {
      std::lock_guard<std::mutex> lock(persist_mu_);
      if (std::find(unspilled_keys_.begin(), unspilled_keys_.end(), key) ==
          unspilled_keys_.end()) {
        unspilled_keys_.push_back(key);
      }
    }
  }

  if (!error.ok()) return error;
  return shared;
}

Result<std::shared_ptr<const TransitionSlices>> TransitionResolver::ResolveSlices(
    const TransitionKey& key, const GraphPartition& partition,
    Outcome* outcome) {
  // Resolve the whole-graph matrix FIRST, so the cache / store / spill
  // behavior and every counter an owner reads off the Outcome are
  // exactly the unsliced path's; the slice cache below then only adds
  // (never replaces) work.
  auto resolved = Resolve(key, outcome);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<const TransitionMatrix> matrix =
      std::move(resolved).value();

  // Same discipline as ResolveBounds: no cache, no single-flight.
  const bool caching = cache_.capacity() > 0;
  if (caching) {
    std::unique_lock<std::mutex> lock(slices_mu_);
    for (;;) {
      const auto hit = std::find_if(
          slices_cache_.begin(), slices_cache_.end(),
          [&](const auto& entry) { return entry.first == key; });
      if (hit != slices_cache_.end()) {
        auto slices = hit->second;
        std::rotate(slices_cache_.begin(), hit, hit + 1);  // MRU to front.
        return slices;
      }
      if (std::find(slices_building_.begin(), slices_building_.end(), key) ==
          slices_building_.end()) {
        break;
      }
      slices_cv_.wait(lock);
    }
    slices_building_.push_back(key);
  }

  Status error;
  std::shared_ptr<const TransitionSlices> shared;
  {
    Result<TransitionSlices> built = BuildTransitionSlices(partition, *matrix);
    ++slice_builds_;
    if (built.ok()) {
      shared =
          std::make_shared<const TransitionSlices>(std::move(built).value());
    } else {
      error = built.status();
    }
  }

  if (caching) {
    {
      std::lock_guard<std::mutex> lock(slices_mu_);
      std::erase(slices_building_, key);
      if (shared != nullptr) {
        slices_cache_.insert(slices_cache_.begin(), {key, shared});
        if (slices_cache_.size() > cache_.capacity()) slices_cache_.pop_back();
      }
    }
    slices_cv_.notify_all();
  }

  if (!error.ok()) return error;
  return shared;
}

std::shared_ptr<const DegreeBoundIndex> TransitionResolver::ResolveBounds(
    const TransitionKey& key,
    const std::shared_ptr<const TransitionMatrix>& transition) {
  // Mirrors Resolve's discipline: with caching disabled there is nowhere
  // for a finished index to land, so waiting on another builder would
  // only serialize independent O(|E|) passes.
  const bool caching = cache_.capacity() > 0;
  if (caching) {
    std::unique_lock<std::mutex> lock(bounds_mu_);
    for (;;) {
      const auto hit = std::find_if(
          bounds_cache_.begin(), bounds_cache_.end(),
          [&](const auto& entry) { return entry.first == key; });
      if (hit != bounds_cache_.end()) {
        auto index = hit->second;
        std::rotate(bounds_cache_.begin(), hit, hit + 1);  // MRU to front.
        return index;
      }
      if (std::find(bounds_building_.begin(), bounds_building_.end(), key) ==
          bounds_building_.end()) {
        break;
      }
      bounds_cv_.wait(lock);
    }
    bounds_building_.push_back(key);
  }

  ++bound_builds_;
  auto built = std::make_shared<const DegreeBoundIndex>(
      DegreeBoundIndex::Build(*graph_, *transition));

  if (caching) {
    {
      std::lock_guard<std::mutex> lock(bounds_mu_);
      std::erase(bounds_building_, key);
      bounds_cache_.insert(bounds_cache_.begin(), {key, built});
      if (bounds_cache_.size() > cache_.capacity()) bounds_cache_.pop_back();
    }
    bounds_cv_.notify_all();
  }
  return built;
}

Status TransitionResolver::PersistCached(int64_t* saves) {
  if (saves != nullptr) *saves = 0;
  if (!store_writable()) {
    return Status::FailedPrecondition(
        "no writable transition store attached (set EngineOptions::"
        "cache_dir and a writable persist_mode)");
  }
  // Snapshot the cache and read/prune the dirty set under one
  // persist_mu_ hold. Resolve marks a key dirty only *after* inserting
  // its matrix (and takes persist_mu_ to do it), so inside this critical
  // section a dirty key absent from the snapshot is provably evicted —
  // its bytes are gone and the mark can never be honored; prune it so
  // the list stays bounded by the resident set. A concurrent build that
  // inserts after the snapshot keeps its mark for the next flush (or the
  // destructor's) instead of losing it.
  std::vector<std::pair<TransitionKey, std::shared_ptr<const TransitionMatrix>>>
      snapshot;
  std::vector<TransitionKey> dirty;
  {
    std::lock_guard<std::mutex> lock(persist_mu_);
    snapshot = cache_.Snapshot();
    dirty = unspilled_keys_;
    std::erase_if(unspilled_keys_, [&](const TransitionKey& unspilled) {
      return std::none_of(
          snapshot.begin(), snapshot.end(),
          [&](const auto& entry) { return entry.first == unspilled; });
    });
  }
  Status first_error;
  for (const auto& [key, matrix] : snapshot) {
    // A key this resolver built must be (re)written even if a file
    // exists — the file may be the corrupt one whose rejection caused
    // the rebuild. Everything else skips on existence, keeping the flush
    // idempotent.
    const bool must_write =
        std::find(dirty.begin(), dirty.end(), key) != dirty.end();
    if (!must_write && store_->Contains(graph_fingerprint_, key)) continue;
    const Status saved = store_->Save(graph_fingerprint_, key, *matrix);
    if (saved.ok()) {
      ++store_saves_;
      if (saves != nullptr) ++*saves;
      std::lock_guard<std::mutex> lock(persist_mu_);
      std::erase(unspilled_keys_, key);
    } else if (first_error.ok()) {
      first_error = saved;
    }
  }
  return first_error;
}

void TransitionResolver::Clear() {
  cache_.Clear();
  {
    std::lock_guard<std::mutex> lock(bounds_mu_);
    bounds_cache_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(slices_mu_);
    slices_cache_.clear();
  }
  // The matrices are gone, so their pending lazy spills can never run.
  std::lock_guard<std::mutex> lock(persist_mu_);
  unspilled_keys_.clear();
}

}  // namespace d2pr
