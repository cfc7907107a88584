#include "api/transition_resolver.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "graph/graph_fingerprint.h"

namespace d2pr {

TransitionResolver::TransitionResolver(std::shared_ptr<const CsrGraph> graph,
                                       const EngineOptions& options)
    : graph_(std::move(graph)),
      options_(options),
      matrices_(options.transition_cache_capacity),
      bounds_(options.transition_cache_capacity) {
  if (!options_.cache_dir.empty() &&
      options_.persist_mode != PersistMode::kOff) {
    store_ = std::make_unique<TransitionStore>(options_.cache_dir);
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
    // Spill layer first: a validated O(|V|) load against the O(|E|)
    // rebuild. A missing file is the expected cold path; a
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
    if (matrices_.capacity() > 0 ||
        !store_->Contains(graph_fingerprint_, key)) {
      const Status saved = store_->Save(graph_fingerprint_, key, **resolved);
      if (saved.ok()) {
        outcome->spilled = true;
        ++store_saves_;
      } else {
        D2PR_LOG(Warning) << "transition store spill failed: "
                          << saved.ToString();
      }
    }
  }
  return resolved;
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

void TransitionResolver::Clear() {
  matrices_.Clear();
  bounds_.Clear();
}

}  // namespace d2pr
