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
      matrices_(options.cache_capacity),
      bounds_(options.cache_capacity),
      slices_(options.cache_capacity) {
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
  bool built_fresh = false;
  auto load_or_build =
      [&]() -> Result<std::shared_ptr<const TransitionMatrix>> {
    // Spill layer first: mapping a persisted matrix is O(1) against the
    // O(|E|) rebuild. A missing file is the expected cold path; a
    // rejected file (wrong graph, corruption, version skew) is surfaced
    // loudly but never used — the rebuild below always produces a
    // correct matrix.
    if (store_readable()) {
      auto loaded = store_->Load(graph_fingerprint_, key, graph_->num_nodes(),
                                 graph_->num_arcs());
      if (loaded.ok()) {
        outcome->store_hit = true;
        ++store_loads_;
        return loaded;
      }
      if (loaded.status().code() != StatusCode::kNotFound) {
        D2PR_LOG(Warning) << "transition store rejected; rebuilding: "
                          << loaded.status().ToString();
      }
    }
    TransitionConfig config;
    config.p = key.p;
    config.beta = key.beta;
    config.metric = key.metric;
    outcome->built = true;
    ++builds_;
    D2PR_ASSIGN_OR_RETURN(TransitionMatrix built,
                          TransitionMatrix::Build(*graph_, config));
    built_fresh = true;
    return std::make_shared<const TransitionMatrix>(std::move(built));
  };
  auto resolved = matrices_.GetOrBuild(key, load_or_build, &outcome->cache_hit);

  // The spill runs after GetOrBuild has released the single-flight slot:
  // waiters need the matrix, not the file, so the disk write must not sit
  // on their critical path.
  if (built_fresh && store_writable()) {
    // With the cache on, a key builds at most once per process, so the
    // unconditional write doubles as repair of a rejected (corrupt)
    // file. With the cache off every request rebuilds; skip the spill
    // when the file already exists or each query would pay a full
    // rewrite (at the cost of not healing corrupt files in that
    // degenerate configuration).
    const bool spill_write_through =
        options_.persist_policy == PersistPolicy::kWriteThrough &&
        (matrices_.capacity() > 0 ||
         !store_->Contains(graph_fingerprint_, key));
    if (spill_write_through) {
      const Status saved = store_->Save(graph_fingerprint_, key, **resolved);
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
  return resolved;
}

Result<std::shared_ptr<const TransitionSlices>> TransitionResolver::ResolveSlices(
    const TransitionKey& key, const GraphPartition& partition,
    Outcome* outcome) {
  // Resolve the whole-graph matrix FIRST, so the cache / store / spill
  // behavior and every counter an owner reads off the Outcome are
  // exactly the unsliced path's; the slice cache below then only adds
  // (never replaces) work.
  D2PR_ASSIGN_OR_RETURN(std::shared_ptr<const TransitionMatrix> matrix,
                        Resolve(key, outcome));
  return slices_.GetOrBuild(
      key, [&]() -> Result<std::shared_ptr<const TransitionSlices>> {
        Result<TransitionSlices> built =
            BuildTransitionSlices(partition, *matrix);
        ++slice_builds_;
        if (!built.ok()) return built.status();
        return std::make_shared<const TransitionSlices>(
            std::move(built).value());
      });
}

std::shared_ptr<const DegreeBoundIndex> TransitionResolver::ResolveBounds(
    const TransitionKey& key,
    const std::shared_ptr<const TransitionMatrix>& transition) {
  return bounds_
      .GetOrBuild(key,
                  [&] {
                    ++bound_builds_;
                    return std::make_shared<const DegreeBoundIndex>(
                        DegreeBoundIndex::Build(*graph_, *transition));
                  })
      .value();
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
    snapshot = matrices_.Snapshot();
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
  matrices_.Clear();
  bounds_.Clear();
  slices_.Clear();
  // The matrices are gone, so their pending lazy spills can never run.
  std::lock_guard<std::mutex> lock(persist_mu_);
  unspilled_keys_.clear();
}

}  // namespace d2pr
