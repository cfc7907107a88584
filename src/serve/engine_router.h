// EngineRouter: the in-process edge-partitioned block solve behind the
// single-engine serving surface (Rank / RankBatch / RankAsync).
//
// Each serving shape has one path:
//
//   * whole graph — one D2prEngine behind a ServingRuntime
//     (serve/serving_runtime.h);
//   * edge partition in one process — this class;
//   * edge partition across processes — a DistributedCoordinator driving
//     ShardWorkers (dist/coordinator.h, dist/shard_worker.h).
//
// The *edges* are partitioned: a GraphPartitioner (graph/partition.h)
// splits the vertex set into per-shard subgraphs (range or hash
// ownership), and every query is answered by a block power /
// Gauss-Seidel iteration (core/block_solver.h) that sweeps each shard's
// owned slice and exchanges boundary mass between sweeps, with dangling
// mass and teleportation handled globally. Each shard touches only its
// own CSR slice during a sweep. Per (p, beta, metric) the shards share
// one whole-graph TransitionMatrix — O(|V|) factors, resolved through
// the cache / persistent store exactly as D2prEngine resolves it — read
// through each shard's in-CSR (core/transition_slices.h): a boundary
// target's degree is not visible inside one shard, so every row's factor
// depends on global state. The deployment where no process ever holds
// the whole graph is the pre-cut shard fleet.
//
// Contract (tests/partition_parity_test.cc and
// tests/partition_fuzz_test.cc enforce it):
//
//   * Power-iteration responses are BIT-IDENTICAL to the single-engine
//     reference for any shard count and either scheme; Gauss-Seidel
//     responses agree within solver tolerance (<= 1e-9 at tolerance
//     1e-11).
//   * Validation errors are the engine's, string for string, and a
//     rejected request never pays a transition build.
//   * Forward push, top-k truncation (RankRequest::top_k > 0), and warm
//     starts are whole-graph constructs: push and top-k requests fail
//     with InvalidArgument; warm tags are accepted but solve cold
//     (warm_start_hit stays false). Gauss-Seidel under
//     DanglingPolicy::kRenormalize is also rejected — its fixed point
//     depends on the sweep order (see core/block_solver.h).
//   * One shared transition cache serves every solve, so on a sequential
//     request stream transition_cache_hit matches the single engine's.
//
// Concurrency: Rank / RankBatch / RankAsync are thread-safe. Rank and
// RankBatch fan each solve's shard sweeps across the worker pool;
// RankAsync solves inline on one pool worker.
//
//   CsrGraph graph = ...;
//   EngineRouter router(std::move(graph), {.num_shards = 4});
//   auto responses = router.RankBatch(requests);   // sweeps fan out
//   auto future = router.RankAsync(request);       // overlap with IO

#ifndef D2PR_SERVE_ENGINE_ROUTER_H_
#define D2PR_SERVE_ENGINE_ROUTER_H_

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "api/engine.h"
#include "api/rank_request.h"
#include "api/transition_resolver.h"
#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"
#include "serve/score_cache.h"
#include "serve/thread_pool.h"

namespace d2pr {

/// \brief EngineRouter construction knobs.
struct RouterOptions {
  /// Shards of the edge partition (0 is clamped to 1).
  size_t num_shards = 2;
  /// Node-ownership scheme of the partition.
  PartitionScheme partition_scheme = PartitionScheme::kRange;
  /// Configures the shared transition resolver exactly as it configures
  /// a D2prEngine's.
  EngineOptions engine_options;
  /// Response memo entry budget in front of the solve; 0 (default)
  /// disables it. Warm-tagged requests bypass it.
  size_t score_cache_capacity = 0;
  /// Worker threads for the shard sweeps and RankAsync; 0 = one per
  /// shard.
  size_t worker_threads = 0;
};

/// \brief Edge-partitioned block solves behind the single-engine query
/// surface.
class EngineRouter {
 public:
  /// Shares ownership of an already-managed graph.
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
  size_t num_shards() const { return partition_.num_shards(); }
  const GraphPartition& partition() const { return partition_; }

  /// The shared transition resolver the block solves read their
  /// per-key matrices from, with its build, cache and store counters.
  const TransitionResolver& transition_resolver() const { return resolver_; }
  const ScoreCache& score_cache() const { return score_cache_; }
  size_t num_worker_threads() const { return pool_.num_threads(); }

  /// \brief One query: validate (mirroring D2prEngine::Rank), resolve
  /// the shared transition, run the block solve with the shard sweeps
  /// fanned across the worker pool.
  Result<RankResponse> Rank(const RankRequest& request);

  /// \brief Executes `requests` in submission order, fail-fast, and
  /// returns responses in request order — the sequential single-engine
  /// contract: on failure, the error of the lowest-index failing request.
  /// Each solve already parallelizes across the shard sweeps, so
  /// request-level fan-out would only fight it for the same workers.
  Result<std::vector<RankResponse>> RankBatch(
      std::span<const RankRequest> requests);

  /// \brief Enqueues one query and immediately returns its future.
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
  /// Rank's body. `allow_pool` fans the shard sweeps across the worker
  /// pool; RankAsync tasks pass false because they already occupy a
  /// worker and nested waits could exhaust a fixed-size pool.
  Result<RankResponse> Solve(const RankRequest& request, bool allow_pool);

  std::shared_ptr<const CsrGraph> graph_;
  RouterOptions options_;
  /// Immutable after construction.
  const GraphPartition partition_;
  const std::vector<double> uniform_teleport_;
  /// Per-key matrices (single-flight LRUs over the store).
  TransitionResolver resolver_;
  ScoreCache score_cache_;

  ThreadPool pool_;  // last member: workers must die before state above
};

}  // namespace d2pr

#endif  // D2PR_SERVE_ENGINE_ROUTER_H_
