#include "serve/engine_router.h"

#include <algorithm>
#include <exception>
#include <latch>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/teleport.h"
#include "graph/graph_fingerprint.h"
#include "linalg/vec_ops.h"

namespace d2pr {

namespace {

ScoreCacheOptions ToScoreCacheOptions(const RouterOptions& options) {
  ScoreCacheOptions cache;
  cache.capacity = options.score_cache_capacity;
  cache.capacity_bytes = options.score_cache_capacity_bytes;
  cache.ttl = options.score_cache_ttl;
  cache.now = options.clock;
  return cache;
}

}  // namespace

EngineRouter::EngineRouter(std::shared_ptr<const CsrGraph> graph,
                           const RouterOptions& options)
    : graph_(std::move(graph)),
      options_(options),
      shard_map_(options.shard_map ? options.shard_map
                                   : std::make_shared<ModuloShardMap>()),
      score_cache_(ToScoreCacheOptions(options)),
      pool_(options.worker_threads > 0
                ? options.worker_threads
                : std::max<size_t>(size_t{1}, options.num_shards)) {
  const size_t num_shards = std::max<size_t>(size_t{1}, options.num_shards);
  if (options.policy == RoutingPolicy::kPartitionedSubgraph) {
    // Edge-partitioned serving: materialize the per-shard subgraphs once;
    // no whole-graph shard engines exist in this mode. Build can only
    // fail on a zero shard count, which the clamp above rules out.
    // The block solvers pull through the in-CSR only; skipping the
    // out-CSR halves the partition's arc memory for pure serving.
    auto partition = GraphPartition::Build(
        *graph_, {.scheme = options.partition_scheme,
                  .num_shards = num_shards,
                  .build_out_csr = false});
    D2PR_CHECK(partition.ok()) << partition.status().ToString();
    partition_ = std::make_unique<const GraphPartition>(
        std::move(partition).value());
    partition_uniform_teleport_ = UniformTeleport(graph_->num_nodes());
    // The shared per-key matrices honor the persistent store exactly as
    // a whole-graph engine does: one fingerprint, load-before-build,
    // write-through spill — the TransitionResolver is literally the same
    // class the engines own.
    const EngineOptions& eo = options_.engine_options;
    TransitionResolverOptions resolver_options;
    resolver_options.cache_capacity = eo.transition_cache_capacity;
    resolver_options.cache_dir = eo.cache_dir;
    resolver_options.persist_mode = eo.persist_mode;
    resolver_options.persist_policy = PersistPolicy::kWriteThrough;
    resolver_options.verify_checksums = eo.persist_verify_checksums;
    resolver_options.precomputed_graph_fingerprint =
        eo.precomputed_graph_fingerprint;
    partition_resolver_ =
        std::make_unique<TransitionResolver>(graph_, resolver_options);
    return;
  }
  // Shards sharing a persistent store all need the same graph
  // fingerprint; hash the edge arrays once here instead of once per
  // shard engine.
  EngineOptions shard_options = options.engine_options;
  if (!shard_options.cache_dir.empty() &&
      shard_options.persist_mode != PersistMode::kOff &&
      shard_options.precomputed_graph_fingerprint == 0) {
    shard_options.precomputed_graph_fingerprint = GraphFingerprint(*graph_);
  }
  shards_.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    shards_.push_back(std::make_unique<D2prEngine>(graph_, shard_options));
  }
  for (NodeId node = 0; node < graph_->num_nodes(); ++node) {
    if (graph_->OutDegree(node) == 0) dangling_nodes_.push_back(node);
  }
}

EngineRouter::EngineRouter(CsrGraph graph, const RouterOptions& options)
    : EngineRouter(std::make_shared<const CsrGraph>(std::move(graph)),
                   options) {}

EngineRouter EngineRouter::Borrowing(const CsrGraph& graph,
                                     const RouterOptions& options) {
  return EngineRouter(
      std::shared_ptr<const CsrGraph>(&graph, [](const CsrGraph*) {}),
      options);
}

size_t EngineRouter::ShardForTag(const std::string& tag) const {
  return std::hash<std::string>{}(tag) % num_shards();
}

size_t EngineRouter::OwnerShardOf(NodeId node) const {
  return shard_map_->OwnerOf(node, num_shards());
}

bool EngineRouter::AdvanceReferenceLruLocked(const TransitionKey& key) {
  auto it = std::find(reference_lru_.begin(), reference_lru_.end(), key);
  if (it != reference_lru_.end()) {
    reference_lru_.splice(reference_lru_.begin(), reference_lru_, it);
    return true;
  }
  const size_t capacity = options_.engine_options.transition_cache_capacity;
  if (capacity > 0) {
    reference_lru_.push_front(key);
    while (reference_lru_.size() > capacity) reference_lru_.pop_back();
  }
  return false;
}

std::vector<EngineRouter::Unit> EngineRouter::RouteLocked(
    const RankRequest& request, size_t request_index,
    std::vector<size_t>& planned_load) {
  std::vector<Unit> units;
  // Warm-tag affinity first: a trajectory must see its whole request
  // subsequence on one engine regardless of policy, or warm state (and
  // with it the bit-exact scores) would scatter.
  if (!request.warm_start_tag.empty()) {
    Unit unit;
    unit.request_index = request_index;
    unit.shard = ShardForTag(request.warm_start_tag);
    unit.request = request;
    ++planned_load[unit.shard];
    units.push_back(std::move(unit));
    return units;
  }

  if (options_.policy == RoutingPolicy::kPartitionedTeleport &&
      !request.seeds.empty() &&
      request.dangling != DanglingPolicy::kRenormalize) {
    // Seed ownership split. kRenormalize is excluded: its fixed point is
    // not linear in the teleport vector, so those requests route whole.
    std::vector<std::vector<NodeId>> owned(shards_.size());
    for (NodeId seed : request.seeds) {
      owned[shard_map_->OwnerOf(seed, shards_.size())].push_back(seed);
    }
    size_t slot = 0;
    for (size_t shard = 0; shard < shards_.size(); ++shard) {
      if (owned[shard].empty()) continue;
      Unit unit;
      unit.request_index = request_index;
      unit.shard = shard;
      unit.slot = slot++;
      unit.weight = static_cast<double>(owned[shard].size()) /
                    static_cast<double>(request.seeds.size());
      unit.request = request;
      unit.request.seeds = std::move(owned[shard]);
      ++planned_load[shard];
      units.push_back(std::move(unit));
    }
    if (units.size() > 1) {
      // MergeParts needs the FULL per-shard score vectors: the dangling
      // un-normalization reads every dangling node's score and the
      // weighted sum runs over all nodes. Sub-requests therefore solve
      // exact; the merge truncates at the end. A single-owner split
      // passes through untouched and may truncate natively on its shard.
      for (Unit& unit : units) unit.request.top_k = 0;
    }
    if (!units.empty()) return units;
    // Unreachable (non-empty seeds always have owners); fall through to
    // the strategy path for safety.
  }

  Unit unit;
  unit.request_index = request_index;
  unit.request = request;
  switch (options_.strategy) {
    case ReplicaStrategy::kRoundRobin:
      unit.shard = round_robin_next_++ % shards_.size();
      break;
    case ReplicaStrategy::kLeastLoaded: {
      size_t best = 0;
      int64_t best_load = std::numeric_limits<int64_t>::max();
      for (size_t shard = 0; shard < shards_.size(); ++shard) {
        const int64_t load =
            shards_[shard]->stats().requests_inflight.load(
                std::memory_order_relaxed) +
            static_cast<int64_t>(planned_load[shard]);
        if (load < best_load) {
          best_load = load;
          best = shard;
        }
      }
      unit.shard = best;
      break;
    }
  }
  ++planned_load[unit.shard];
  units.push_back(std::move(unit));
  return units;
}

RankResponse EngineRouter::MergeParts(const RankRequest& request,
                                      std::vector<Part> parts) const {
  RankResponse merged;
  merged.method = request.method;
  merged.converged = true;
  merged.scores.assign(static_cast<size_t>(graph_->num_nodes()), 0.0);
  for (Part& part : parts) {
    double scale = part.weight;
    if (request.dangling == DanglingPolicy::kTeleport &&
        !dangling_nodes_.empty()) {
      // Un-normalize: x_s = ((1-a) + a*m_s) * (I - aP)^-1 v_s, where m_s
      // is the dangling mass of x_s itself. Dividing by that factor
      // recovers the linear-in-teleport quantity the weighted sum of
      // sub-teleports actually combines.
      double dangling_mass = 0.0;
      for (NodeId node : dangling_nodes_) {
        dangling_mass += part.response.scores[static_cast<size_t>(node)];
      }
      scale /= (1.0 - request.alpha) + request.alpha * dangling_mass;
    }
    for (size_t i = 0; i < merged.scores.size(); ++i) {
      merged.scores[i] += scale * part.response.scores[i];
    }
    merged.iterations = std::max(merged.iterations, part.response.iterations);
    merged.pushes += part.response.pushes;
    merged.converged = merged.converged && part.response.converged;
    merged.residual = std::max(merged.residual, part.response.residual);
    // "As executed" store diagnostics survive the merge: any sub-solve
    // whose transition was mapped from the persistent store reports it.
    merged.transition_store_hit =
        merged.transition_store_hit || part.response.transition_store_hit;
  }
  NormalizeL1(merged.scores);
  if (request.top_k > 0) {
    // The sub-solves ran exact (RouteLocked strips top_k from split
    // units), so truncation happens here on the merged vector. The merge
    // is accurate only to solver tolerance, so entries within 1e-9 of
    // the boundary are served uncertified instead of claiming a
    // membership the float error cannot back.
    TruncatedTopK truncated =
        TruncateToTopK(merged.scores, request.top_k, /*certify_margin=*/1e-9);
    merged.top = std::move(truncated.entries);
    merged.uncertainty_gap = truncated.uncertainty_gap;
    merged.truncated = true;
    merged.scores.clear();
  }
  return merged;
}

Result<RankResponse> EngineRouter::ExecuteUnits(const RankRequest& request,
                                                std::vector<Unit> units) {
  std::vector<Part> parts;
  parts.reserve(units.size());
  for (Unit& unit : units) {
    Result<RankResponse> response = shards_[unit.shard]->Rank(unit.request);
    if (!response.ok()) return response.status();
    parts.push_back(Part{unit.weight, std::move(response).value()});
  }
  if (parts.size() == 1 && parts[0].weight == 1.0) {
    return std::move(parts[0].response);
  }
  return MergeParts(request, std::move(parts));
}

Result<std::shared_ptr<const TransitionSlices>> EngineRouter::PartitionSlices(
    const TransitionKey& key, bool* cache_hit, bool* store_hit) {
  // Row probabilities depend on global destination metrics (a boundary
  // target's degree is invisible inside one shard), so the slices come
  // from one shared whole-graph matrix: per-key single-flight over
  // cache, store, build — the same TransitionResolver discipline the
  // whole-graph engines use.
  TransitionResolver::Outcome outcome;
  auto resolved =
      partition_resolver_->ResolveSlices(key, *partition_, &outcome);
  *cache_hit = outcome.cache_hit;
  *store_hit = outcome.store_hit;
  return resolved;
}

Result<RankResponse> EngineRouter::RankPartitioned(const RankRequest& request,
                                                   bool allow_pool) {
  const bool cacheable =
      score_cache_.enabled() && request.warm_start_tag.empty();
  std::string memo_key;
  if (cacheable) {
    memo_key = ScoreCache::KeyFor(request);
    if (std::optional<RankResponse> memo = score_cache_.Lookup(memo_key)) {
      return std::move(*memo);
    }
  }

  // The shared parameter validation keeps this mode's errors identical
  // to D2prEngine::Rank; the two mode-specific rejections come after it
  // so they cost no O(|E|) build and no cache eviction.
  D2PR_RETURN_NOT_OK(ValidateRankRequestParameters(request));
  if (request.top_k > 0) {
    // The block solve produces one distributed score vector; certified
    // truncation would need the whole vector gathered anyway, and the
    // serving win of top-k (bounded push) does not exist in this mode.
    // Fail cleanly instead of silently serving the full-vector cost.
    return Status::InvalidArgument(
        "top-k is not supported in partitioned-subgraph routing; "
        "use a replicated or partitioned-teleport router");
  }
  if (request.method == SolverMethod::kForwardPush) {
    // Forward push walks the whole forward adjacency from its seeds; it
    // has no block formulation here. Fail cleanly instead of serving a
    // silently different algorithm.
    return Status::InvalidArgument(
        "forward push is not supported in partitioned-subgraph routing; "
        "use power or gauss-seidel, or a replicated router");
  }
  if (request.method == SolverMethod::kGaussSeidel) {
    D2PR_RETURN_NOT_OK(ValidateBlockGaussSeidelPolicy(request.dangling));
  }

  std::vector<double> seeded;
  std::span<const double> teleport;
  if (!request.seeds.empty()) {
    Result<std::vector<double>> built =
        SeededTeleport(graph_->num_nodes(), request.seeds);
    if (!built.ok()) return built.status();
    seeded = std::move(built).value();
    teleport = seeded;
  } else {
    teleport = partition_uniform_teleport_;
  }

  TransitionKey key;
  key.p = request.p;
  key.beta = graph_->weighted() ? request.beta : 0.0;
  key.metric = ResolveMetric(*graph_, request.metric);
  bool cache_hit = false;
  bool store_hit = false;
  Result<std::shared_ptr<const TransitionSlices>> slices =
      PartitionSlices(key, &cache_hit, &store_hit);
  if (!slices.ok()) return slices.status();

  PagerankOptions solver;
  solver.alpha = request.alpha;
  solver.tolerance = request.tolerance;
  solver.max_iterations = request.max_iterations;
  solver.dangling = request.dangling;

  // Shard sweeps write disjoint owned slices, so they fan out across the
  // worker pool when the caller is not itself a pool worker.
  BlockParallelFor parallel;
  if (allow_pool && partition_->num_shards() > 1) {
    parallel = [this](size_t count, const std::function<void(size_t)>& fn) {
      std::latch done(static_cast<ptrdiff_t>(count));
      std::mutex sweep_mu;
      std::exception_ptr sweep_error;
      for (size_t i = 0; i < count; ++i) {
        pool_.Submit([&done, &fn, &sweep_mu, &sweep_error, i] {
          // Count down even if fn throws: a lost tick would deadlock the
          // waiting solve (the pool survives task exceptions by design).
          struct Tick {
            std::latch& latch;
            ~Tick() { latch.count_down(); }
          } tick{done};
          try {
            fn(i);
          } catch (...) {
            // Captured and rethrown on the waiting thread: a sweep that
            // died must fail the solve, not leave its slice silently
            // unwritten under a converged-looking response.
            std::lock_guard<std::mutex> lock(sweep_mu);
            if (!sweep_error) sweep_error = std::current_exception();
          }
        });
      }
      done.wait();
      if (sweep_error) std::rethrow_exception(sweep_error);
    };
  }

  Result<PagerankResult> solved = [&]() -> Result<PagerankResult> {
    try {
      return request.method == SolverMethod::kGaussSeidel
                 ? SolveGaussSeidelPartitioned(**slices, *partition_,
                                               teleport, solver, parallel)
                 : SolvePagerankPartitioned(**slices, *partition_,
                                            teleport, solver, parallel);
    } catch (const std::exception& e) {
      return Status::Internal(
          StrCat("partitioned shard sweep threw: ", e.what()));
    } catch (...) {
      return Status::Internal("partitioned shard sweep threw");
    }
  }();
  if (!solved.ok()) return solved.status();

  RankResponse response;
  response.method = request.method;
  response.iterations = solved->iterations;
  response.converged = solved->converged;
  response.residual = solved->residual;
  response.scores = std::move(solved->scores);
  response.transition_cache_hit = cache_hit;
  response.transition_store_hit = store_hit;
  response.served_partitioned = true;
  // Warm starts are a whole-graph engine construct; tagged requests
  // solve cold here and warm_start_hit stays false.
  if (cacheable) score_cache_.Insert(memo_key, response);
  return response;
}

Result<RankResponse> EngineRouter::Rank(const RankRequest& request) {
  if (partition_) return RankPartitioned(request, /*allow_pool=*/true);
  const bool cacheable =
      score_cache_.enabled() && request.warm_start_tag.empty();
  std::string key;
  std::optional<RankResponse> memo;
  if (cacheable) {
    key = ScoreCache::KeyFor(request);
    memo = score_cache_.Lookup(key);
  }

  // The virtual reference LRU advances only for requests that succeed —
  // memo hits included — because the sequential engine validates before
  // touching its cache: a failing request must not leave a key (or, for
  // NaN parameters, an unmatchable junk key) in the reference trace.
  auto advance_reference = [this, &request] {
    std::lock_guard<std::mutex> lock(route_mu_);
    return AdvanceReferenceLruLocked(shards_[0]->ResolveKey(request));
  };

  if (memo) {
    memo->transition_cache_hit = advance_reference();
    return std::move(*memo);
  }

  std::vector<Unit> units;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    std::vector<size_t> planned_load(shards_.size(), 0);
    units = RouteLocked(request, 0, planned_load);
  }

  Result<RankResponse> response = ExecuteUnits(request, std::move(units));
  if (!response.ok()) return response;
  if (cacheable) score_cache_.Insert(key, *response);
  response->transition_cache_hit = advance_reference();
  return response;
}

Result<std::vector<RankResponse>> EngineRouter::RankBatch(
    std::span<const RankRequest> requests) {
  std::vector<RankResponse> responses(requests.size());
  if (requests.empty()) return responses;

  if (partition_) {
    // Partitioned-subgraph batches run in submission order, fail-fast —
    // exactly the sequential single-engine contract. Each solve already
    // parallelizes internally across the shard sweeps, so request-level
    // fan-out would only fight it for the same workers.
    for (size_t i = 0; i < requests.size(); ++i) {
      Result<RankResponse> response =
          RankPartitioned(requests[i], /*allow_pool=*/true);
      if (!response.ok()) return response.status();
      responses[i] = std::move(response).value();
    }
    return responses;
  }

  // Memo probes run before planning so the O(num_nodes) response copies
  // happen outside route_mu_. Duplicate memoizable requests within one
  // batch solve once: only the first occurrence of a cache key is probed
  // and routed, the rest alias to its response afterwards (the batched
  // analogue of ServingRuntime's single-flight).
  constexpr size_t kNoAlias = std::numeric_limits<size_t>::max();
  const bool cache_on = score_cache_.enabled();
  std::vector<char> memoized(requests.size(), 0);
  std::vector<size_t> alias_of(requests.size(), kNoAlias);
  std::vector<std::string> keys(requests.size());
  if (cache_on) {
    std::unordered_map<std::string, size_t> first_key_index;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].warm_start_tag.empty()) continue;
      keys[i] = ScoreCache::KeyFor(requests[i]);
      auto [it, inserted] = first_key_index.try_emplace(keys[i], i);
      if (!inserted) {
        alias_of[i] = it->second;
        continue;
      }
      if (std::optional<RankResponse> memo = score_cache_.Lookup(keys[i])) {
        responses[i] = std::move(*memo);
        memoized[i] = 1;
      }
    }
  }

  // Plan the whole batch atomically: shard assignment happens in
  // submission order.
  std::vector<std::vector<Part>> parts(requests.size());
  std::vector<std::vector<Unit>> chains(shards_.size());
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    std::vector<size_t> planned_load(shards_.size(), 0);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (memoized[i] || alias_of[i] != kNoAlias) continue;
      std::vector<Unit> units = RouteLocked(requests[i], i, planned_load);
      parts[i].resize(units.size());
      for (Unit& unit : units) {
        parts[i][unit.slot].weight = unit.weight;
        chains[unit.shard].push_back(std::move(unit));
      }
    }
  }

  std::mutex error_mu;
  size_t first_error_index = requests.size();
  Status first_error = Status::OK();

  ptrdiff_t active_chains = 0;
  for (const std::vector<Unit>& chain : chains) {
    if (!chain.empty()) ++active_chains;
  }
  std::latch done(active_chains);
  for (std::vector<Unit>& chain : chains) {
    if (chain.empty()) continue;
    pool_.Submit([this, &parts, &error_mu, &first_error_index, &first_error,
                  &done, chain = std::move(chain)] {
      // RAII tick: the pool contains task exceptions, so a throw past
      // a plain trailing count_down() would strand done.wait() forever.
      struct Tick {
        std::latch& latch;
        ~Tick() { latch.count_down(); }
      } tick{done};
      for (const Unit& unit : chain) {
        Result<RankResponse> response =
            shards_[unit.shard]->Rank(unit.request);
        if (!response.ok()) {
          // Mirror the sequential fail-fast error: of all failing
          // requests, the lowest index wins; the rest of this shard's
          // chain would never have run, so stop it.
          std::lock_guard<std::mutex> lock(error_mu);
          if (unit.request_index < first_error_index) {
            first_error_index = unit.request_index;
            first_error = response.status();
          }
          break;
        }
        // Distinct (request_index, slot) per unit: writes never collide.
        parts[unit.request_index][unit.slot].response =
            std::move(response).value();
      }
    });
  }
  done.wait();

  // The reference LRU advances for exactly the successful prefix — the
  // requests whose transitions the sequential single-engine reference
  // would have fetched before failing fast (a failing request validates
  // before touching the cache, so it never advances it).
  const size_t replayed =
      first_error_index < requests.size() ? first_error_index
                                          : requests.size();
  std::vector<bool> expected_hits(requests.size(), false);
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    for (size_t i = 0; i < replayed; ++i) {
      expected_hits[i] =
          AdvanceReferenceLruLocked(shards_[0]->ResolveKey(requests[i]));
    }
  }
  if (first_error_index < requests.size()) return first_error;

  for (size_t i = 0; i < requests.size(); ++i) {
    if (memoized[i] || alias_of[i] != kNoAlias) continue;
    if (parts[i].size() == 1 && parts[i][0].weight == 1.0) {
      responses[i] = std::move(parts[i][0].response);
    } else {
      responses[i] = MergeParts(requests[i], std::move(parts[i]));
    }
    if (cache_on && requests[i].warm_start_tag.empty()) {
      score_cache_.Insert(keys[i], responses[i]);
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    if (alias_of[i] != kNoAlias) responses[i] = responses[alias_of[i]];
    responses[i].transition_cache_hit = expected_hits[i];
  }
  return responses;
}

std::future<Result<RankResponse>> EngineRouter::RankAsync(
    RankRequest request) {
  auto promise = std::make_shared<std::promise<Result<RankResponse>>>();
  std::future<Result<RankResponse>> future = promise->get_future();
  // Rank() executes entirely inline (no nested pool submits), so async
  // tasks can never deadlock the fixed-size pool. The partitioned path
  // is told it runs on a worker: its shard sweeps stay inline rather
  // than submitting nested waits that could exhaust the pool.
  pool_.Submit([this, promise, request = std::move(request)] {
    promise->set_value(partition_
                           ? RankPartitioned(request, /*allow_pool=*/false)
                           : Rank(request));
  });
  return future;
}

void EngineRouter::RankAsync(RankRequest request,
                             std::function<void(Result<RankResponse>)> done,
                             std::function<Status()> gate) {
  pool_.Submit([this, request = std::move(request), done = std::move(done),
                gate = std::move(gate)]() mutable {
    if (gate) {
      Status admitted = gate();
      if (!admitted.ok()) {
        done(std::move(admitted));
        return;
      }
    }
    done(partition_ ? RankPartitioned(request, /*allow_pool=*/false)
                    : Rank(request));
  });
}

}  // namespace d2pr
