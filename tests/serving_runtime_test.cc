// ServingRuntime behavior: a parallel RankBatch must be element-for-
// element identical to the engine's sequential RankBatch (mixed solvers,
// personalization, warm-start chains, pre-populated caches), RankAsync
// must agree with Rank, errors must surface as the sequential fail-fast
// status, the score cache must short-circuit repeated queries, and a
// memo hit through RankAsync must complete on the calling thread.

#include "serve/serving_runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/classic_generators.h"

namespace d2pr {
namespace {

Result<CsrGraph> TestGraph(uint64_t seed, NodeId nodes = 250,
                           int64_t edges = 750) {
  Rng rng(seed);
  return ErdosRenyi(nodes, edges, &rng);
}

/// Occupies every worker of `runtime` until `release` counts down, and
/// returns once they all are.
void ParkEveryWorker(ServingRuntime& runtime, std::latch& release) {
  for (size_t i = 0; i < runtime.num_threads(); ++i) {
    runtime.pool().Submit([&release] { release.wait(); });
  }
  while (runtime.pool().busy_workers() <
         static_cast<int64_t>(runtime.num_threads())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ExpectResponsesIdentical(const RankResponse& parallel,
                              const RankResponse& sequential, size_t index) {
  SCOPED_TRACE("request index " + std::to_string(index));
  EXPECT_EQ(parallel.scores, sequential.scores);  // exact, not approximate
  EXPECT_EQ(parallel.method, sequential.method);
  EXPECT_EQ(parallel.iterations, sequential.iterations);
  EXPECT_EQ(parallel.pushes, sequential.pushes);
  EXPECT_EQ(parallel.converged, sequential.converged);
  EXPECT_EQ(parallel.residual, sequential.residual);
  EXPECT_EQ(parallel.transition_cache_hit, sequential.transition_cache_hit);
  EXPECT_EQ(parallel.warm_start_hit, sequential.warm_start_hit);
}

/// A mixed serving workload: global and personalized queries across all
/// three solvers, two warm-start sweep chains, and repeated parameter
/// points that exercise the transition cache.
std::vector<RankRequest> MixedWorkload(NodeId num_nodes) {
  std::vector<RankRequest> requests;
  const std::vector<double> p_values = {0.3, 0.8};
  for (int i = 0; i < 36; ++i) {
    RankRequest request;
    request.p = p_values[i % p_values.size()];
    request.tolerance = 1e-9;
    switch (i % 3) {
      case 0:
        request.method = SolverMethod::kPower;
        break;
      case 1:
        request.method = SolverMethod::kGaussSeidel;
        request.alpha = 0.9;
        break;
      case 2:
        request.method = SolverMethod::kForwardPush;
        request.push_epsilon = 1e-6;
        request.seeds = {static_cast<NodeId>((i * 7) % num_nodes)};
        break;
    }
    if (i % 5 == 0) {
      request.seeds = {static_cast<NodeId>(i % num_nodes),
                       static_cast<NodeId>((i * 3 + 1) % num_nodes)};
      if (request.method == SolverMethod::kForwardPush) {
        request.seeds.resize(1);
      }
    }
    requests.push_back(std::move(request));
  }
  // Two interleaved warm-start sweep trajectories; the runtime must keep
  // each chain ordered even while everything else fans out.
  for (int i = 0; i < 6; ++i) {
    RankRequest sweep;
    sweep.p = -1.0 + 0.4 * i;
    sweep.tolerance = 1e-9;
    sweep.warm_start_tag = "sweep-a";
    requests.push_back(sweep);

    RankRequest tune;
    tune.p = 1.0;
    tune.alpha = 0.5 + 0.07 * i;
    tune.tolerance = 1e-9;
    tune.warm_start_tag = "sweep-b";
    requests.push_back(tune);
  }
  return requests;
}

TEST(ServingRuntimeTest, ParallelBatchIdenticalToSequentialReference) {
  auto graph = TestGraph(21);
  ASSERT_TRUE(graph.ok());
  const std::vector<RankRequest> requests =
      MixedWorkload(graph->num_nodes());

  D2prEngine sequential_engine = D2prEngine::Borrowing(*graph);
  auto sequential = sequential_engine.RankBatch(requests);
  ASSERT_TRUE(sequential.ok());

  D2prEngine parallel_engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      parallel_engine, {.num_threads = 4, .score_cache_capacity = 0});
  auto parallel = runtime.RankBatch(requests);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(parallel->size(), sequential->size());
  for (size_t i = 0; i < parallel->size(); ++i) {
    ExpectResponsesIdentical((*parallel)[i], (*sequential)[i], i);
  }
}

TEST(ServingRuntimeTest, ParallelBatchIdenticalAfterPriorTraffic) {
  auto graph = TestGraph(22);
  ASSERT_TRUE(graph.ok());

  // Both engines see identical prior traffic, so the batch starts from a
  // part-populated transition cache — the diagnostics replay must pick
  // up the engine's current LRU state, not assume a cold cache.
  std::vector<RankRequest> prior;
  for (double p : {0.3, 1.7}) {
    RankRequest request;
    request.p = p;
    request.tolerance = 1e-9;
    prior.push_back(request);
  }
  const std::vector<RankRequest> requests =
      MixedWorkload(graph->num_nodes());

  D2prEngine sequential_engine = D2prEngine::Borrowing(*graph);
  ASSERT_TRUE(sequential_engine.RankBatch(prior).ok());
  auto sequential = sequential_engine.RankBatch(requests);
  ASSERT_TRUE(sequential.ok());

  D2prEngine parallel_engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      parallel_engine, {.num_threads = 4, .score_cache_capacity = 0});
  ASSERT_TRUE(parallel_engine.RankBatch(prior).ok());
  auto parallel = runtime.RankBatch(requests);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(parallel->size(), sequential->size());
  for (size_t i = 0; i < parallel->size(); ++i) {
    ExpectResponsesIdentical((*parallel)[i], (*sequential)[i], i);
  }
}

TEST(ServingRuntimeTest, RepeatedParallelBatchesStayIdentical) {
  auto graph = TestGraph(23);
  ASSERT_TRUE(graph.ok());
  const std::vector<RankRequest> requests =
      MixedWorkload(graph->num_nodes());

  D2prEngine sequential_engine = D2prEngine::Borrowing(*graph);
  D2prEngine parallel_engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      parallel_engine, {.num_threads = 4, .score_cache_capacity = 0});

  // Warm trajectories and cache state persist across batches; the
  // equivalence must hold for every subsequent batch, not just the first.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto sequential = sequential_engine.RankBatch(requests);
    ASSERT_TRUE(sequential.ok());
    auto parallel = runtime.RankBatch(requests);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->size(), sequential->size());
    for (size_t i = 0; i < parallel->size(); ++i) {
      ExpectResponsesIdentical((*parallel)[i], (*sequential)[i], i);
    }
  }
}

TEST(ServingRuntimeTest, EmptyBatchReturnsEmpty) {
  auto graph = TestGraph(24);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(engine);
  auto responses = runtime.RankBatch({});
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE(responses->empty());
}

TEST(ServingRuntimeTest, BatchErrorMatchesSequentialFailFastStatus) {
  auto graph = TestGraph(25);
  ASSERT_TRUE(graph.ok());
  std::vector<RankRequest> requests = MixedWorkload(graph->num_nodes());
  requests[10].alpha = 1.5;  // invalid
  requests[20].p = std::numeric_limits<double>::quiet_NaN();  // also invalid

  D2prEngine sequential_engine = D2prEngine::Borrowing(*graph);
  auto sequential = sequential_engine.RankBatch(requests);
  ASSERT_FALSE(sequential.ok());

  D2prEngine parallel_engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      parallel_engine, {.num_threads = 4, .score_cache_capacity = 0});
  auto parallel = runtime.RankBatch(requests);
  ASSERT_FALSE(parallel.ok());

  // The lowest failing index (10) wins in both paths.
  EXPECT_EQ(parallel.status().ToString(), sequential.status().ToString());
}

TEST(ServingRuntimeTest, RankAsyncAgreesWithRank) {
  auto graph = TestGraph(26);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime =
      ServingRuntime::Borrowing(engine, {.num_threads = 2});

  RankRequest request;
  request.p = 0.7;
  request.tolerance = 1e-9;
  auto future = runtime.RankAsync(request);
  auto async_response = future.get();
  ASSERT_TRUE(async_response.ok());

  auto sync_response = runtime.Rank(request);
  ASSERT_TRUE(sync_response.ok());
  EXPECT_EQ(async_response->scores, sync_response->scores);

  // The request is memoized now: the hit's future is ready on return.
  auto hit_future = runtime.RankAsync(request);
  ASSERT_EQ(hit_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto hit_response = hit_future.get();
  ASSERT_TRUE(hit_response.ok());
  EXPECT_EQ(hit_response->scores, sync_response->scores);

  RankRequest invalid = request;
  invalid.alpha = -0.5;
  auto failed = runtime.RankAsync(invalid).get();
  EXPECT_FALSE(failed.ok());
}

TEST(ServingRuntimeTest, ScoreCacheShortCircuitsRepeatedQueries) {
  auto graph = TestGraph(27);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      engine, {.num_threads = 2, .score_cache_capacity = 16});

  RankRequest request;
  request.p = 0.4;
  request.tolerance = 1e-9;
  auto first = runtime.Rank(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine.stats().requests, 1);

  auto second = runtime.Rank(request);
  ASSERT_TRUE(second.ok());
  // Served from the memo: the engine never saw the repeat.
  EXPECT_EQ(engine.stats().requests, 1);
  EXPECT_EQ(second->scores, first->scores);
  EXPECT_EQ(runtime.score_cache().stats().hits, 1);

  // A whole batch of the identical query costs at most one more solve
  // (the responses are memo copies either way).
  std::vector<RankRequest> batch(32, request);
  auto responses = runtime.RankBatch(batch);
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ(engine.stats().requests, 1);
  for (const RankResponse& response : *responses) {
    EXPECT_EQ(response.scores, first->scores);
  }
}

TEST(ServingRuntimeTest, ColdIdenticalBatchSolvesExactlyOnce) {
  auto graph = TestGraph(29);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      engine, {.num_threads = 4, .score_cache_capacity = 16});

  // Nothing is memoized yet: without single-flight, up to num_threads
  // workers would all miss and duplicate the identical solve.
  RankRequest request;
  request.p = 0.6;
  request.tolerance = 1e-9;
  std::vector<RankRequest> batch(32, request);
  auto responses = runtime.RankBatch(batch);
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ(engine.stats().requests, 1);
  for (const RankResponse& response : *responses) {
    EXPECT_EQ(response.scores, (*responses)[0].scores);
  }
}

TEST(ServingRuntimeTest, WarmTaggedRequestsBypassScoreCache) {
  auto graph = TestGraph(28);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      engine, {.num_threads = 2, .score_cache_capacity = 16});

  RankRequest request;
  request.p = 0.4;
  request.tolerance = 1e-9;
  request.warm_start_tag = "trajectory";
  ASSERT_TRUE(runtime.Rank(request).ok());
  ASSERT_TRUE(runtime.Rank(request).ok());
  // Both executions reached the engine; nothing was memoized.
  EXPECT_EQ(engine.stats().requests, 2);
  EXPECT_EQ(runtime.score_cache().size(), 0u);
}

TEST(ServingRuntimeTest, MemoHitCompletesOnTheCallingThread) {
  auto graph = TestGraph(30);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      engine, {.num_threads = 2, .score_cache_capacity = 16});

  RankRequest cached;
  cached.p = 0.4;
  cached.tolerance = 1e-9;
  auto first = runtime.Rank(cached);
  ASSERT_TRUE(first.ok());
  const int64_t solves = engine.stats().requests;
  const ScoreCacheStats before = runtime.score_cache().stats();

  // With no worker free, only the caller's thread can answer.
  std::latch release(1);
  ParkEveryWorker(runtime, release);

  std::optional<Result<RankResponse>> hit;
  std::thread::id hit_thread;
  runtime.RankAsync(cached, [&](Result<RankResponse> result) {
    hit_thread = std::this_thread::get_id();
    hit = std::move(result);
  });
  // EXPECT, not ASSERT, until the workers are released: a failed check
  // must not return with them parked.
  EXPECT_TRUE(hit.has_value());
  EXPECT_EQ(hit_thread, std::this_thread::get_id());
  EXPECT_TRUE(hit && hit->ok() && (*hit)->scores == first->scores);
  EXPECT_EQ(engine.stats().requests, solves);
  EXPECT_EQ(runtime.score_cache().stats().hits, before.hits + 1);
  EXPECT_EQ(runtime.score_cache().stats().misses, before.misses);

  // A key that is not cached waits for the pool.
  RankRequest cold = cached;
  cold.p = 0.9;
  std::promise<Result<RankResponse>> cold_result;
  runtime.RankAsync(cold, [&](Result<RankResponse> result) {
    cold_result.set_value(std::move(result));
  });
  std::future<Result<RankResponse>> cold_future = cold_result.get_future();
  EXPECT_EQ(cold_future.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  EXPECT_EQ(runtime.pool().queue_depth(), 1);

  release.count_down();
  ASSERT_TRUE(cold_future.get().ok());
  EXPECT_EQ(engine.stats().requests, solves + 1);
  const ScoreCacheStats after = runtime.score_cache().stats();
  // hits + misses = cacheable calls (three), misses = solves (two).
  EXPECT_EQ(after.hits + after.misses, 3);
  EXPECT_EQ(after.misses, engine.stats().requests);
}

TEST(ServingRuntimeTest, GateRejectingAMemoHitCountsNoLookup) {
  auto graph = TestGraph(31);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime = ServingRuntime::Borrowing(
      engine, {.num_threads = 1, .score_cache_capacity = 16});

  RankRequest request;
  request.p = 0.4;
  request.tolerance = 1e-9;
  ASSERT_TRUE(runtime.Rank(request).ok());
  const ScoreCacheStats before = runtime.score_cache().stats();

  int gate_calls = 0;
  std::optional<Result<RankResponse>> rejected;
  runtime.RankAsync(
      request,
      [&](Result<RankResponse> result) { rejected = std::move(result); },
      [&]() -> Status {
        ++gate_calls;
        return Status::DeadlineExceeded("expired");
      });
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(gate_calls, 1);
  EXPECT_EQ(rejected->status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(runtime.score_cache().stats().hits, before.hits);
  EXPECT_EQ(runtime.score_cache().stats().misses, before.misses);
  EXPECT_EQ(engine.stats().requests, 1);
}

}  // namespace
}  // namespace d2pr
