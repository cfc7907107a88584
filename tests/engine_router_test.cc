// EngineRouter serving-surface contracts on the edge-partitioned block
// solve: batches run in submission order and fail fast with the lowest
// failing index's status (the sequential engine's), an empty batch is
// empty, RankAsync agrees with Rank, failed requests never touch the
// shared transition cache, and the response memo serves stored
// responses. Score parity with the single engine is
// tests/partition_parity_test.cc's job.

#include "serve/engine_router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
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

/// A power-iteration serving mix: global and personalized queries over
/// a few repeated parameter points (transition-cache traffic), plus two
/// warm-tagged chains, which the block solve accepts and solves cold.
std::vector<RankRequest> Workload(NodeId num_nodes) {
  std::vector<RankRequest> requests;
  const std::vector<double> p_values = {0.3, 0.8, 1.3};
  for (int i = 0; i < 18; ++i) {
    RankRequest request;
    request.p = p_values[static_cast<size_t>(i) % p_values.size()];
    request.tolerance = 1e-9;
    if (i % 3 == 0) {
      request.seeds = {static_cast<NodeId>((i * 7) % num_nodes)};
      if (i % 6 == 0) {
        request.seeds.push_back(
            static_cast<NodeId>((i * 11 + 1) % num_nodes));
      }
    }
    requests.push_back(std::move(request));
  }
  for (int i = 0; i < 4; ++i) {
    RankRequest sweep;
    sweep.p = -1.0 + 0.5 * i;
    sweep.tolerance = 1e-9;
    sweep.warm_start_tag = "chain-a";
    requests.push_back(sweep);

    RankRequest tune;
    tune.p = 0.9;
    tune.alpha = 0.6 + 0.08 * i;
    tune.tolerance = 1e-9;
    tune.warm_start_tag = "chain-b";
    requests.push_back(tune);
  }
  return requests;
}

TEST(EngineRouterTest, EmptyBatchReturnsEmpty) {
  auto graph = TestGraph(35);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 2});
  auto responses = router.RankBatch({});
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE(responses->empty());
}

TEST(EngineRouterTest, BatchErrorMatchesSequentialFailFastStatus) {
  auto graph = TestGraph(36);
  ASSERT_TRUE(graph.ok());
  std::vector<RankRequest> requests = Workload(graph->num_nodes());
  requests[7].alpha = 1.5;  // invalid
  requests[12].p = std::numeric_limits<double>::quiet_NaN();  // also invalid

  D2prEngine reference = D2prEngine::Borrowing(*graph);
  auto sequential = reference.RankBatch(requests);
  ASSERT_FALSE(sequential.ok());

  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 4});
  auto routed = router.RankBatch(requests);
  ASSERT_FALSE(routed.ok());

  // The lowest failing index (7) wins in both paths.
  EXPECT_EQ(routed.status().ToString(), sequential.status().ToString());
}

TEST(EngineRouterTest, RankAsyncAgreesWithRank) {
  auto graph = TestGraph(37);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 2});

  RankRequest request;
  request.p = 0.7;
  request.tolerance = 1e-9;
  auto future = router.RankAsync(request);
  auto async_response = future.get();
  ASSERT_TRUE(async_response.ok());

  auto sync_response = router.Rank(request);
  ASSERT_TRUE(sync_response.ok());
  EXPECT_EQ(async_response->scores, sync_response->scores);

  RankRequest invalid = request;
  invalid.alpha = -0.5;
  auto failed = router.RankAsync(invalid).get();
  EXPECT_FALSE(failed.ok());
}

TEST(EngineRouterTest, FailedRequestsDoNotAdvanceReferenceDiagnostics) {
  auto graph = TestGraph(42);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 2});

  // Validation precedes the shared transition cache, as in the engine,
  // so a failing request leaves no key behind — the next valid query at
  // the same point is still the first build.
  RankRequest invalid;
  invalid.p = 0.7;
  invalid.alpha = 1.5;  // invalid: validation precedes the cache
  ASSERT_FALSE(router.Rank(invalid).ok());
  RankRequest nan_request;
  nan_request.p = std::numeric_limits<double>::quiet_NaN();
  ASSERT_FALSE(router.Rank(nan_request).ok());

  RankRequest valid;
  valid.p = 0.7;
  valid.tolerance = 1e-9;
  auto first = router.Rank(valid);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->transition_cache_hit);
  auto second = router.Rank(valid);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->transition_cache_hit);
}

TEST(EngineRouterTest, ColdIdenticalBatchSolvesOncePerDistinctKey) {
  auto graph = TestGraph(43);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(
      *graph, {.num_shards = 4, .score_cache_capacity = 16});

  // 32 copies of one query plus 8 of another in a single cold batch:
  // the memo must solve once per distinct key, and every repeat must
  // equal its solved original.
  RankRequest hot;
  hot.p = 0.6;
  hot.tolerance = 1e-9;
  RankRequest cold;
  cold.p = 1.1;
  cold.tolerance = 1e-9;
  std::vector<RankRequest> batch(32, hot);
  for (int i = 0; i < 8; ++i) batch.push_back(cold);

  auto responses = router.RankBatch(batch);
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ(router.score_cache().stats().misses, 2);  // one per key
  EXPECT_EQ(router.score_cache().stats().hits, 38);
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_EQ((*responses)[i].scores, (*responses)[0].scores);
  }
  for (size_t i = 32; i < batch.size(); ++i) {
    EXPECT_EQ((*responses)[i].scores, (*responses)[32].scores);
  }
}

TEST(EngineRouterTest, ScoreCacheMemoizesAcrossShards) {
  auto graph = TestGraph(41);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(
      *graph, {.num_shards = 2, .score_cache_capacity = 16});

  RankRequest request;
  request.p = 0.4;
  request.tolerance = 1e-9;
  auto first = router.Rank(request);
  ASSERT_TRUE(first.ok());
  auto second = router.Rank(request);
  ASSERT_TRUE(second.ok());
  // The repeat is the stored response, diagnostics included: it never
  // reached the transition cache, so it still reads as the first build.
  EXPECT_EQ(second->scores, first->scores);
  EXPECT_EQ(second->iterations, first->iterations);
  EXPECT_EQ(second->residual, first->residual);
  EXPECT_FALSE(second->transition_cache_hit);
  EXPECT_TRUE(second->served_partitioned);
  EXPECT_EQ(router.transition_resolver().cache_lookup_hits() +
                router.transition_resolver().cache_lookup_misses(),
            1);
  EXPECT_EQ(router.score_cache().stats().hits, 1);
}

}  // namespace
}  // namespace d2pr
