#include "serve/engine_router.h"

#include <algorithm>
#include <exception>
#include <latch>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/block_solver.h"
#include "core/teleport.h"
#include "core/transition_slices.h"

namespace d2pr {

namespace {

size_t ClampedShards(const RouterOptions& options) {
  return std::max<size_t>(size_t{1}, options.num_shards);
}

GraphPartition BuildPartition(const CsrGraph& graph,
                              const RouterOptions& options) {
  // Build can only fail on a zero shard count, which the clamp rules
  // out. The block solvers pull through the in-CSR only; skipping the
  // out-CSR halves the partition's arc memory for pure serving.
  auto partition = GraphPartition::Build(
      graph, {.scheme = options.partition_scheme,
              .num_shards = ClampedShards(options),
              .build_out_csr = false});
  D2PR_CHECK(partition.ok()) << partition.status().ToString();
  return std::move(partition).value();
}

}  // namespace

EngineRouter::EngineRouter(std::shared_ptr<const CsrGraph> graph,
                           const RouterOptions& options)
    : graph_(std::move(graph)),
      options_(options),
      partition_(BuildPartition(*graph_, options)),
      uniform_teleport_(UniformTeleport(graph_->num_nodes())),
      resolver_(graph_, options.engine_options),
      score_cache_(options.score_cache_capacity),
      pool_(options.worker_threads > 0 ? options.worker_threads
                                       : ClampedShards(options)) {}

EngineRouter::EngineRouter(CsrGraph graph, const RouterOptions& options)
    : EngineRouter(std::make_shared<const CsrGraph>(std::move(graph)),
                   options) {}

EngineRouter EngineRouter::Borrowing(const CsrGraph& graph,
                                     const RouterOptions& options) {
  return EngineRouter(
      std::shared_ptr<const CsrGraph>(&graph, [](const CsrGraph*) {}),
      options);
}

Result<RankResponse> EngineRouter::Solve(const RankRequest& request,
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
  // to D2prEngine::Rank; the mode-specific rejections come after it so
  // they cost no O(|E|) build and no cache eviction.
  D2PR_RETURN_NOT_OK(ValidateRankRequestParameters(request));
  if (request.top_k > 0) {
    // The block solve produces one distributed score vector; certified
    // truncation would need the whole vector gathered anyway, and the
    // serving win of top-k (bounded push) does not exist in this mode.
    // Fail cleanly instead of silently serving the full-vector cost.
    return Status::InvalidArgument(
        "top-k is not supported in partitioned-subgraph routing; "
        "serve it from a whole-graph engine");
  }
  if (request.method == SolverMethod::kForwardPush) {
    // Forward push walks the whole forward adjacency from its seeds; it
    // has no block formulation here. Fail cleanly instead of serving a
    // silently different algorithm.
    return Status::InvalidArgument(
        "forward push is not supported in partitioned-subgraph routing; "
        "use power or gauss-seidel, or a whole-graph engine");
  }
  if (request.method == SolverMethod::kGaussSeidel) {
    D2PR_RETURN_NOT_OK(ValidateBlockGaussSeidelPolicy(request.dangling));
  }

  std::vector<double> seeded;
  std::span<const double> teleport;
  if (!request.seeds.empty()) {
    D2PR_ASSIGN_OR_RETURN(seeded,
                          SeededTeleport(graph_->num_nodes(), request.seeds));
    teleport = seeded;
  } else {
    teleport = uniform_teleport_;
  }

  // Row factors depend on global destination metrics (a boundary
  // target's degree is invisible inside one shard), so the shards share
  // one whole-graph matrix: per-key single-flight over cache, store,
  // build.
  TransitionKey key;
  key.p = request.p;
  key.beta = graph_->weighted() ? request.beta : 0.0;
  key.metric = ResolveMetric(*graph_, request.metric);
  TransitionResolver::Outcome outcome;
  D2PR_ASSIGN_OR_RETURN(std::shared_ptr<const TransitionMatrix> transition,
                        resolver_.Resolve(key, &outcome));
  D2PR_ASSIGN_OR_RETURN(
      const TransitionSlices slices,
      BuildTransitionSlices(*graph_, partition_, std::move(transition)));

  PagerankOptions solver;
  solver.alpha = request.alpha;
  solver.tolerance = request.tolerance;
  solver.max_iterations = request.max_iterations;
  solver.dangling = request.dangling;

  // Shard sweeps write disjoint owned slices, so they fan out across the
  // worker pool when the caller is not itself a pool worker.
  BlockParallelFor parallel;
  if (allow_pool && partition_.num_shards() > 1) {
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
                 ? SolveGaussSeidelPartitioned(slices, partition_, teleport,
                                               solver, parallel)
                 : SolvePagerankPartitioned(slices, partition_, teleport,
                                            solver, parallel);
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
  response.transition_cache_hit = outcome.cache_hit;
  response.transition_store_hit = outcome.store_hit;
  response.served_partitioned = true;
  // Warm starts are a whole-graph engine construct; tagged requests
  // solve cold here and warm_start_hit stays false.
  if (cacheable) score_cache_.Insert(memo_key, response);
  return response;
}

Result<RankResponse> EngineRouter::Rank(const RankRequest& request) {
  return Solve(request, /*allow_pool=*/true);
}

Result<std::vector<RankResponse>> EngineRouter::RankBatch(
    std::span<const RankRequest> requests) {
  std::vector<RankResponse> responses;
  responses.reserve(requests.size());
  for (const RankRequest& request : requests) {
    D2PR_ASSIGN_OR_RETURN(RankResponse response,
                          Solve(request, /*allow_pool=*/true));
    responses.push_back(std::move(response));
  }
  return responses;
}

std::future<Result<RankResponse>> EngineRouter::RankAsync(
    RankRequest request) {
  auto promise = std::make_shared<std::promise<Result<RankResponse>>>();
  std::future<Result<RankResponse>> future = promise->get_future();
  RankAsync(std::move(request), [promise](Result<RankResponse> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

void EngineRouter::RankAsync(RankRequest request,
                             std::function<void(Result<RankResponse>)> done,
                             std::function<Status()> gate) {
  // The task already occupies a worker: its shard sweeps stay inline
  // rather than submitting nested waits that could exhaust the pool.
  pool_.Submit([this, request = std::move(request), done = std::move(done),
                gate = std::move(gate)]() mutable {
    if (gate) {
      Status admitted = gate();
      if (!admitted.ok()) {
        done(std::move(admitted));
        return;
      }
    }
    done(Solve(request, /*allow_pool=*/false));
  });
}

}  // namespace d2pr
