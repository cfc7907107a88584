// EngineRouter: N D2prEngine shards behind the single-engine serving
// surface (Rank / RankBatch / RankAsync).
//
// The engine facade is the seam: callers speak only RankRequest /
// RankResponse, so a router can replace one engine with a fleet of them
// without touching any call site. All shards share one immutable CsrGraph
// (a shared_ptr, not a copy); what is sharded is the mutable per-engine
// state — transition caches, warm-start stores, and the locks guarding
// them — which is exactly what serializes traffic on a single engine.
//
// Two routing policies:
//
//   * kReplicated — every shard can answer every request. Untagged
//     requests spread round-robin (deterministic) or least-loaded (by a
//     snapshot of each shard's requests_inflight gauge) so cache and lock
//     contention stops serializing independent queries. Warm-tag
//     affinity: all requests sharing a warm_start_tag pin to one shard
//     (stable hash of the tag), so every trajectory sees exactly the
//     per-tag request subsequence a single engine would — scores,
//     iteration counts, and warm diagnostics stay bit-identical to the
//     sequential single-engine reference.
//   * kPartitionedSubgraph — the *edges* themselves are partitioned: a
//     GraphPartitioner (graph/partition.h) splits the vertex set into
//     per-shard subgraphs (range or hash ownership), and every query is
//     answered by a block power / Gauss-Seidel iteration
//     (core/block_solver.h) that sweeps each shard's owned slice and
//     exchanges boundary mass between sweeps, with dangling mass and
//     teleportation handled globally. This is the scale mode for graphs
//     whose adjacency exceeds one machine's memory: each shard touches
//     only its own CSR slice during a sweep. No whole-graph shard
//     engines exist in this mode (shard() is invalid); the router keys
//     per-shard TransitionSlices per (p, beta, metric) — contiguous,
//     in-CSR-aligned probability slices each sweep streams
//     (core/transition_slices.h). The slices are cut from one shared
//     whole-graph TransitionMatrix, resolved through the cache /
//     persistent store exactly as the whole-graph engines resolve it —
//     a boundary target's degree is not visible inside one shard, so
//     every slice depends on global state. The matrix-free deployment,
//     where no process ever holds the whole graph, is the pre-cut shard
//     fleet (dist/shard_worker.h), not this in-process mode.
//     Power-iteration responses are BIT-IDENTICAL
//     to the single-engine reference for any shard count and either
//     scheme; Gauss-Seidel responses agree within solver tolerance
//     (<= 1e-9 at tolerance 1e-11). Forward push, top-k truncation
//     (RankRequest::top_k > 0), and warm starts are whole-graph
//     constructs: push and top-k requests fail with InvalidArgument,
//     warm tags are accepted but solve cold (warm_start_hit stays
//     false). Gauss-Seidel under DanglingPolicy::kRenormalize is also
//     rejected — its fixed point depends on the sweep order (see
//     core/block_solver.h), the same non-linearity that makes
//     kPartitionedTeleport route kRenormalize requests whole. See
//     tests/partition_parity_test.cc and tests/partition_fuzz_test.cc
//     for the enforced contract.
//   * kPartitionedTeleport — the *query space* is partitioned by seed
//     ownership under a pluggable ShardMap: a personalized request whose
//     seeds span several owner shards is split into one sub-request per
//     owner (seeds restricted to that shard's nodes), and the per-shard
//     score vectors are merged back into one global RankResponse. The
//     merge exploits that the PageRank fixed point is linear in the
//     teleport vector once each sub-solution is un-normalized: under
//     DanglingPolicy::kTeleport a sub-solution x_s with dangling mass m_s
//     satisfies x_s = ((1-a) + a*m_s) * (I - aP)^-1 v_s, so the router
//     rescales each x_s by weight_s / ((1-a) + a*m_s), sums, and
//     L1-renormalizes — recovering the full-teleport solution to within
//     solver tolerance. Top-k requests that split strip top_k from the
//     sub-requests (the merge needs full vectors) and truncate the
//     merged vector, serving boundary-near entries uncertified (1e-9
//     merge margin). Global (unseeded) requests and warm-tagged
//     requests route whole, as in replicated mode;
//     DanglingPolicy::kRenormalize breaks the linearity argument, so
//     seeded kRenormalize requests also route whole.
//
// Determinism contract (the parity suite in tests/engine_router_test.cc
// and tests/router_fuzz_test.cc enforces this):
//
//   * Replicated RankBatch is element-for-element identical to
//     D2prEngine::RankBatch on the same request sequence, for any shard
//     count, provided distinct warm tags stay within
//     EngineOptions::warm_start_capacity (per-shard warm stores evict
//     independently beyond that, the same caveat ServingRuntime documents
//     for cross-tag eviction order).
//   * Partitioned responses agree with the single-engine reference within
//     solver tolerance, and merged score vectors sum to 1.
//   * transition_cache_hit diagnostics are normalized to the sequential
//     single-engine reference: the router replays a persistent virtual
//     LRU (same capacity as one engine's transition cache) over the
//     request stream in submission order and overwrites each response's
//     flag with the replayed value, so diagnostics do not depend on how
//     traffic happened to spread across shards. Failed requests never
//     advance the replay — mirroring the engine, which validates before
//     touching its cache. warm_start_hit needs no normalization — tag
//     pinning makes it deterministic already.
//
// Concurrency: Rank / RankBatch / RankAsync are thread-safe. A RankBatch
// runs each shard's sub-sequence in submission order on a worker pool
// (one chain per shard); concurrent batches are safe but interleave on
// the shard engines, so cross-batch warm ordering is unspecified — the
// same contract ServingRuntime has.
//
//   CsrGraph graph = ...;
//   EngineRouter router(std::move(graph), {.num_shards = 4});
//   auto responses = router.RankBatch(requests);   // fans across shards
//   auto future = router.RankAsync(request);       // overlap with IO

#ifndef D2PR_SERVE_ENGINE_ROUTER_H_
#define D2PR_SERVE_ENGINE_ROUTER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <atomic>

#include "api/engine.h"
#include "api/rank_request.h"
#include "common/result.h"
#include "core/block_solver.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"
#include "serve/score_cache.h"
#include "serve/thread_pool.h"

namespace d2pr {

/// \brief How the router spreads requests across shards.
enum class RoutingPolicy {
  /// Every shard answers any request; untagged requests spread by
  /// ReplicaStrategy, warm-tagged requests pin by tag hash.
  kReplicated,
  /// Personalized requests route (and split) by seed-node ownership under
  /// the ShardMap; everything else behaves as in kReplicated.
  kPartitionedTeleport,
  /// The graph's edges are partitioned into per-shard subgraphs
  /// (graph/partition.h) and every query runs as a block iteration with
  /// cross-shard mass exchange (core/block_solver.h). See the file
  /// comment for the parity contract and mode restrictions.
  kPartitionedSubgraph,
};

/// \brief Untagged-request spreading strategy in replicated routing.
enum class ReplicaStrategy {
  /// Deterministic rotation over shards (default; reproducible routing).
  kRoundRobin,
  /// Snapshot of each shard's requests_inflight gauge plus the
  /// assignments already planned, lowest shard index on ties.
  /// Deterministic from an idle router, adaptive under live traffic.
  kLeastLoaded,
};

/// \brief Pluggable seed-node ownership for kPartitionedTeleport.
class ShardMap {
 public:
  virtual ~ShardMap() = default;
  /// Which shard owns `node`. Must be a pure function of (node,
  /// num_shards) — the router calls it from multiple threads and relies
  /// on stable answers for cache affinity.
  virtual size_t OwnerOf(NodeId node, size_t num_shards) const = 0;
};

/// \brief Default ownership: node id modulo shard count.
class ModuloShardMap final : public ShardMap {
 public:
  size_t OwnerOf(NodeId node, size_t num_shards) const override {
    return static_cast<size_t>(static_cast<uint32_t>(node)) % num_shards;
  }
};

/// \brief EngineRouter construction knobs.
struct RouterOptions {
  /// Shard engines to stand up (0 is clamped to 1).
  size_t num_shards = 2;
  RoutingPolicy policy = RoutingPolicy::kReplicated;
  ReplicaStrategy strategy = ReplicaStrategy::kRoundRobin;
  /// Seed ownership for kPartitionedTeleport; null = ModuloShardMap.
  std::shared_ptr<const ShardMap> shard_map;
  /// Node-ownership scheme for kPartitionedSubgraph (ignored by the
  /// other policies). kHash matches ModuloShardMap, so seed ownership
  /// and subgraph ownership coincide under the default ShardMap.
  PartitionScheme partition_scheme = PartitionScheme::kRange;
  /// Options forwarded to every shard engine. The transition-cache
  /// capacity also sizes the router's virtual reference LRU (diagnostic
  /// normalization).
  EngineOptions engine_options;
  /// Shared response memo in front of routing; 0 (default) disables it so
  /// the router is parity-pure out of the box. Only full (merged)
  /// responses are ever inserted — per-shard partial responses never
  /// reach the cache. With the memo on, duplicate memoizable requests
  /// within one RankBatch also solve exactly once (in-batch dedup).
  size_t score_cache_capacity = 0;
  /// Response memo byte budget (see ScoreCacheOptions::capacity_bytes);
  /// 0 = no byte limit. Either nonzero budget enables the memo.
  size_t score_cache_capacity_bytes = 0;
  std::chrono::nanoseconds score_cache_ttl{0};
  /// Injectable time source for the score cache (tests).
  std::function<std::chrono::steady_clock::time_point()> clock;
  /// Worker threads for RankBatch / RankAsync; 0 = one per shard.
  size_t worker_threads = 0;
};

/// \brief N-shard engine fleet behind the single-engine query surface.
class EngineRouter {
 public:
  /// Shares ownership of an already-managed graph across all shards.
  explicit EngineRouter(std::shared_ptr<const CsrGraph> graph,
                        const RouterOptions& options = {});

  /// Takes ownership of `graph`.
  explicit EngineRouter(CsrGraph graph, const RouterOptions& options = {});

  /// Borrows `graph`; the caller keeps it alive for the router's
  /// lifetime (the pattern tools and tests use for stack graphs).
  static EngineRouter Borrowing(const CsrGraph& graph,
                                const RouterOptions& options = {});

  const CsrGraph& graph() const { return *graph_; }
  const RouterOptions& options() const { return options_; }
  size_t num_shards() const {
    return partition_ ? partition_->num_shards() : shards_.size();
  }
  /// Shard engines are exposed for telemetry (stats snapshots) and tests;
  /// routing through the router while mutating a shard directly voids the
  /// determinism contract. Invalid in partitioned-subgraph mode, which
  /// has no whole-graph engines — use partition() there.
  D2prEngine& shard(size_t index) {
    D2PR_CHECK(!shards_.empty())
        << "no shard engines in partitioned-subgraph mode";
    return *shards_[index];
  }
  const D2prEngine& shard(size_t index) const {
    D2PR_CHECK(!shards_.empty())
        << "no shard engines in partitioned-subgraph mode";
    return *shards_[index];
  }

  /// True when the router serves through an edge-partitioned block solve
  /// (RoutingPolicy::kPartitionedSubgraph).
  bool partitioned_subgraph() const { return partition_ != nullptr; }
  /// The edge partition; only valid in partitioned-subgraph mode.
  const GraphPartition& partition() const {
    D2PR_CHECK(partition_ != nullptr)
        << "partition() outside partitioned-subgraph mode";
    return *partition_;
  }
  /// Transition accounting of the partitioned-subgraph mode (the shared
  /// per-key matrices the block solves read). Zero in the other modes.
  int64_t partition_transition_builds() const {
    return partition_resolver_ ? partition_resolver_->builds() : 0;
  }
  int64_t partition_transition_cache_hits() const {
    return partition_resolver_ ? partition_resolver_->cache_lookup_hits() : 0;
  }
  int64_t partition_transition_cache_misses() const {
    return partition_resolver_ ? partition_resolver_->cache_lookup_misses()
                               : 0;
  }
  int64_t partition_transition_store_loads() const {
    return partition_resolver_ ? partition_resolver_->store_loads() : 0;
  }
  int64_t partition_transition_store_saves() const {
    return partition_resolver_ ? partition_resolver_->store_saves() : 0;
  }
  /// Slice constructions in the partitioned-subgraph mode (cache misses
  /// in the resolver's slice cache).
  int64_t partition_slice_builds() const {
    return partition_resolver_ ? partition_resolver_->slice_builds() : 0;
  }
  const ScoreCache& score_cache() const { return score_cache_; }
  size_t num_worker_threads() const { return pool_.num_threads(); }

  /// The shard a warm-start tag pins to (stable for the router's life).
  size_t ShardForTag(const std::string& tag) const;
  /// The shard owning `node` under the active ShardMap.
  size_t OwnerShardOf(NodeId node) const;

  /// \brief One query, routed (and, in partitioned mode, split/merged) on
  /// the caller's thread.
  Result<RankResponse> Rank(const RankRequest& request);

  /// \brief Executes `requests` across the shards and returns responses
  /// in request order.
  ///
  /// Each shard's sub-sequence runs in submission order on one worker, so
  /// per-shard state (warm trajectories, cache recency) evolves exactly
  /// as the routing plan dictates. On failure, returns the error of the
  /// lowest-index failing request — the same status the fail-fast
  /// sequential path reports; side effects of later requests are
  /// unspecified in that case.
  Result<std::vector<RankResponse>> RankBatch(
      std::span<const RankRequest> requests);

  /// \brief Enqueues one query and immediately returns its future.
  ///
  /// Routing order across concurrent async requests is whatever the pool
  /// runs; use RankBatch when reference-identical diagnostics matter.
  std::future<Result<RankResponse>> RankAsync(RankRequest request);

  /// \brief Enqueues one query; `done` runs on the worker that solved it,
  /// with the result (the completion-queue form — see the ServingRuntime
  /// overload for the contract `done` and the pre-solve `gate` honor).
  void RankAsync(RankRequest request,
                 std::function<void(Result<RankResponse>)> done,
                 std::function<Status()> gate = nullptr);

  /// The worker pool, exposed so an admission-control layer (net/server.h)
  /// can read queue_depth() to shed load before enqueueing, and so tests
  /// can park workers deterministically.
  ThreadPool& pool() { return pool_; }

 private:
  /// One engine execution planned for a request. A request routed whole
  /// is a single unit of weight 1; a seed-split request has one unit per
  /// owning shard, weighted by its share of the seed set.
  struct Unit {
    size_t request_index = 0;
    size_t shard = 0;
    size_t slot = 0;      ///< Index into the request's parts vector.
    double weight = 1.0;
    RankRequest request;
  };
  struct Part {
    double weight = 1.0;
    RankResponse response;
  };

  /// Routes one request into units. Caller holds route_mu_;
  /// `planned_load` accumulates this plan's per-shard assignments for
  /// kLeastLoaded.
  std::vector<Unit> RouteLocked(const RankRequest& request,
                                size_t request_index,
                                std::vector<size_t>& planned_load);

  /// Advances the virtual single-engine LRU by one request's transition
  /// key and returns the hit flag the sequential reference would report.
  /// Caller holds route_mu_.
  bool AdvanceReferenceLruLocked(const TransitionKey& key);

  /// Weighted, dangling-aware merge of per-shard partial responses into
  /// one global response (see the linearity note in the file comment).
  /// The merged score vector is L1-normalized to mass 1.
  RankResponse MergeParts(const RankRequest& request,
                          std::vector<Part> parts) const;

  /// Runs one request's units sequentially on the caller's thread.
  Result<RankResponse> ExecuteUnits(const RankRequest& request,
                                    std::vector<Unit> units);

  /// One query through the partitioned-subgraph path: validate (mirroring
  /// D2prEngine::Rank), resolve the shared transition, run the block
  /// solve. `allow_pool` fans the shard sweeps across the worker pool;
  /// RankAsync tasks pass false because they already occupy a worker and
  /// nested waits could exhaust a fixed-size pool.
  Result<RankResponse> RankPartitioned(const RankRequest& request,
                                       bool allow_pool);

  /// Per-shard transition slices for `key`. Delegates to the shared
  /// TransitionResolver (single-flight; concurrent requesters of one key
  /// wait rather than duplicating the work), which resolves the
  /// whole-graph matrix exactly as the whole-graph engines do — cache,
  /// store, write-through spill — then slices it.
  Result<std::shared_ptr<const TransitionSlices>> PartitionSlices(
      const TransitionKey& key, bool* cache_hit, bool* store_hit);

  std::shared_ptr<const CsrGraph> graph_;
  RouterOptions options_;
  std::shared_ptr<const ShardMap> shard_map_;
  std::vector<std::unique_ptr<D2prEngine>> shards_;
  std::vector<NodeId> dangling_nodes_;  ///< For the merge rescale.
  ScoreCache score_cache_;

  /// Partitioned-subgraph state; null in the other modes. The partition
  /// and teleport vector are immutable after construction; the resolver
  /// is the same cache + store + single-flight-build class the
  /// whole-graph engines use, honoring EngineOptions cache_dir /
  /// persist_mode / persist_verify_checksums exactly as they do. Spills
  /// are always write-through (this mode has no lazy-flush surface).
  std::unique_ptr<const GraphPartition> partition_;
  std::vector<double> partition_uniform_teleport_;
  std::unique_ptr<TransitionResolver> partition_resolver_;

  /// Guards the routing state: the round-robin cursor and the virtual
  /// reference LRU. Held only for planning (key bookkeeping), never
  /// during a solve.
  std::mutex route_mu_;
  size_t round_robin_next_ = 0;
  std::list<TransitionKey> reference_lru_;  // front = most recently used

  ThreadPool pool_;  // last member: workers must die before state above
};

}  // namespace d2pr

#endif  // D2PR_SERVE_ENGINE_ROUTER_H_
