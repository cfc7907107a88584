// D2prEngine behavior: transition-cache accounting, cold batched sweeps,
// batch determinism, solver dispatch, and validation through the cache.

#include "api/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/sweeps.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "linalg/vec_ops.h"

namespace d2pr {
namespace {

Result<CsrGraph> TestGraph(uint64_t seed, NodeId nodes = 300,
                           int64_t edges = 900) {
  Rng rng(seed);
  return ErdosRenyi(nodes, edges, &rng);
}

TEST(EngineTest, RepeatedRequestHitsTransitionCache) {
  auto graph = TestGraph(1);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);

  auto first = engine.Rank({.p = 0.5});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->transition_cache_hit);
  EXPECT_EQ(engine.stats().transition_builds, 1);
  EXPECT_EQ(engine.stats().transition_cache_hits, 0);

  auto second = engine.Rank({.p = 0.5, .alpha = 0.7});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->transition_cache_hit);
  EXPECT_EQ(engine.stats().transition_builds, 1);
  EXPECT_EQ(engine.stats().transition_cache_hits, 1);

  auto third = engine.Rank({.p = 0.6});
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->transition_cache_hit);
  EXPECT_EQ(engine.stats().transition_builds, 2);
}

TEST(EngineTest, AutoMetricSharesCacheWithResolvedMetric) {
  auto graph = TestGraph(2);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ASSERT_TRUE(engine.Rank({.p = 1.0, .metric = DegreeMetric::kAuto}).ok());
  // On an unweighted graph kAuto resolves to kOutDegree: same cache entry.
  auto resolved =
      engine.Rank({.p = 1.0, .metric = DegreeMetric::kOutDegree});
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->transition_cache_hit);
  EXPECT_EQ(engine.stats().transition_builds, 1);
}

TEST(EngineTest, CacheEvictionTriggersRebuild) {
  auto graph = TestGraph(3, 100, 300);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine =
      D2prEngine::Borrowing(*graph, {.transition_cache_capacity = 2});
  ASSERT_TRUE(engine.Rank({.p = 0.0}).ok());
  ASSERT_TRUE(engine.Rank({.p = 1.0}).ok());
  ASSERT_TRUE(engine.Rank({.p = 2.0}).ok());  // evicts p = 0
  auto again = engine.Rank({.p = 0.0});
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->transition_cache_hit);
  EXPECT_EQ(engine.stats().transition_builds, 4);
}

TEST(EngineTest, InvalidBetaRejectedEvenWhenFoldedKeyIsCached) {
  auto graph = TestGraph(4);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  // Unweighted graph: any valid beta folds to the beta = 0 cache entry...
  ASSERT_TRUE(engine.Rank({.p = 0.5, .beta = 0.25}).ok());
  ASSERT_TRUE(engine.Rank({.p = 0.5, .beta = 0.75}).ok());
  EXPECT_EQ(engine.stats().transition_builds, 1);
  // ...but an out-of-range beta must still error, not hit the cache.
  EXPECT_FALSE(engine.Rank({.p = 0.5, .beta = 1.5}).ok());
  EXPECT_FALSE(engine.Rank({.p = 0.5, .beta = -0.1}).ok());
  // NaN would otherwise forge never-matchable cache keys on weighted
  // graphs (NaN != NaN) and churn the LRU.
  EXPECT_FALSE(
      engine.Rank({.p = 0.5, .beta = std::nan("")}).ok());
  EXPECT_FALSE(engine.Rank({.p = std::nan(""), .beta = 0.0}).ok());
  EXPECT_EQ(engine.stats().transition_builds, 1);
}

// Asserts every point of a sweep over `field` is bit-identical to a cold
// SolvePagerank at that value, with the same iteration count.
void ExpectColdPoints(const CsrGraph& graph,
                      const std::vector<SweepPoint>& sweep,
                      const std::vector<double>& grid, const D2prOptions& base,
                      double D2prOptions::*field) {
  ASSERT_EQ(sweep.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(grid[i]);
    D2prOptions point = base;
    point.*field = grid[i];
    auto cold =
        SolvePagerank(graph,
                      TransitionMatrix::Build(graph, ToTransitionConfig(point))
                          .value(),
                      ToPagerankOptions(point));
    ASSERT_TRUE(cold.ok());
    const PagerankResult& swept = sweep[i].result;
    ASSERT_EQ(swept.scores.size(), cold->scores.size());
    EXPECT_EQ(std::memcmp(swept.scores.data(), cold->scores.data(),
                          cold->scores.size() * sizeof(double)),
              0);
    EXPECT_EQ(swept.iterations, cold->iterations);
  }
}

TEST(EngineTest, SweepPointsAreBitIdenticalToColdSolves) {
  auto graph = TestGraph(5, 400, 1600);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  D2prOptions base;
  base.tolerance = 1e-11;
  const std::vector<double> grid = LinearGrid(-2.0, 2.0, 0.5);
  auto sweep = SweepP(engine, grid, base);
  ASSERT_TRUE(sweep.ok());
  // The sweep solves batched cold columns: no point reads the warm-start
  // store.
  EXPECT_EQ(engine.stats().warm_start_hits, 0);
  ExpectColdPoints(*graph, *sweep, grid, base, &D2prOptions::p);

  auto alphas = SweepAlpha(engine, PaperAlphaGrid(), base);
  ASSERT_TRUE(alphas.ok());
  ExpectColdPoints(*graph, *alphas, PaperAlphaGrid(), base,
                   &D2prOptions::alpha);

  // β needs a weighted graph.
  Rng rng(5);
  GraphBuilder builder(200, GraphKind::kUndirected, /*weighted=*/true);
  for (int edge = 0; edge < 800; ++edge) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<NodeId>(rng.Below(200)),
                             static_cast<NodeId>(rng.Below(200)),
                             rng.Uniform(0.5, 3.0))
                    .ok());
  }
  auto weighted = builder.Build();
  ASSERT_TRUE(weighted.ok());
  base.p = 1.0;
  auto betas = SweepBeta(*weighted, PaperBetaGrid(), base);
  ASSERT_TRUE(betas.ok());
  ExpectColdPoints(*weighted, *betas, PaperBetaGrid(), base,
                   &D2prOptions::beta);
}

TEST(EngineTest, RankBatchIsDeterministicAndMatchesSequentialRanks) {
  auto graph = TestGraph(6);
  ASSERT_TRUE(graph.ok());
  std::vector<RankRequest> requests;
  for (double p : {-1.0, 0.0, 0.5, 0.5, 1.0}) {
    RankRequest request;
    request.p = p;
    request.warm_start_tag = "batch";
    requests.push_back(request);
  }

  D2prEngine a = D2prEngine::Borrowing(*graph);
  D2prEngine b = D2prEngine::Borrowing(*graph);
  auto batch_a = a.RankBatch(requests);
  auto batch_b = b.RankBatch(requests);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  ASSERT_EQ(batch_a->size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ((*batch_a)[i].scores, (*batch_b)[i].scores) << "request " << i;
    EXPECT_EQ((*batch_a)[i].iterations, (*batch_b)[i].iterations);
  }

  D2prEngine c = D2prEngine::Borrowing(*graph);
  for (size_t i = 0; i < requests.size(); ++i) {
    auto single = c.Rank(requests[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->scores, (*batch_a)[i].scores) << "request " << i;
  }
}

TEST(EngineTest, BatchFailsFastOnFirstInvalidRequest) {
  auto graph = TestGraph(7, 100, 300);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  std::vector<RankRequest> requests(3);
  requests[1].alpha = 1.5;  // invalid
  auto batch = engine.RankBatch(requests);
  EXPECT_FALSE(batch.ok());
}

// A mixed list: batched power runs (plain, seeded, top_k) around tagged,
// Gauss-Seidel, push and differently-seeded requests that run alone.
std::vector<RankRequest> MixedBatch() {
  std::vector<RankRequest> requests;
  auto add = [&requests](double p) -> RankRequest& {
    requests.push_back({});
    requests.back().p = p;
    return requests.back();
  };
  add(0.5);
  add(1.0).dangling = DanglingPolicy::kRenormalize;
  add(0.5).warm_start_tag = "trajectory";
  add(0.75).warm_start_tag = "trajectory";
  add(0.5).method = SolverMethod::kGaussSeidel;
  RankRequest& push = add(0.5);
  push.method = SolverMethod::kForwardPush;
  push.seeds = {3};
  add(0.0).seeds = {1, 2};
  add(1.0).seeds = {1, 2};
  add(1.0).seeds = {4};
  add(-1.0).top_k = 10;
  add(2.0).alpha = 0.7;
  add(0.5).max_iterations = 4;
  add(-0.5);
  return requests;
}

void ExpectSameStats(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.transition_builds, b.transition_builds);
  EXPECT_EQ(a.transition_cache_hits, b.transition_cache_hits);
  EXPECT_EQ(a.transition_store_loads, b.transition_store_loads);
  EXPECT_EQ(a.transition_store_saves, b.transition_store_saves);
  EXPECT_EQ(a.warm_start_hits, b.warm_start_hits);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  EXPECT_EQ(a.push_operations, b.push_operations);
}

TEST(EngineTest, RankBatchMixedListIsBitIdenticalToSequentialRanks) {
  auto graph = TestGraph(9);
  ASSERT_TRUE(graph.ok());
  const std::vector<RankRequest> requests = MixedBatch();
  D2prEngine sequential = D2prEngine::Borrowing(*graph);
  std::vector<RankResponse> expected;
  for (const RankRequest& request : requests) {
    auto response = sequential.Rank(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    expected.push_back(std::move(response).value());
  }

  D2prEngine batched = D2prEngine::Borrowing(*graph);
  auto responses = batched.RankBatch(requests);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    const RankResponse& got = (*responses)[i];
    const RankResponse& want = expected[i];
    ASSERT_EQ(got.scores.size(), want.scores.size());
    EXPECT_EQ(std::memcmp(got.scores.data(), want.scores.data(),
                          want.scores.size() * sizeof(double)),
              0);
    EXPECT_EQ(got.top, want.top);
    EXPECT_EQ(got.truncated, want.truncated);
    EXPECT_EQ(got.method, want.method);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.pushes, want.pushes);
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_EQ(std::memcmp(&got.residual, &want.residual, sizeof(double)), 0);
    EXPECT_EQ(got.transition_cache_hit, want.transition_cache_hit);
    EXPECT_EQ(got.transition_store_hit, want.transition_store_hit);
    EXPECT_EQ(got.warm_start_hit, want.warm_start_hit);
  }
  ExpectSameStats(batched.stats(), sequential.stats());
}

TEST(EngineTest, RankBatchReturnsTheFirstFailingRequestsStatus) {
  auto graph = TestGraph(10);
  ASSERT_TRUE(graph.ok());
  // Each failure sits inside a batched run, behind valid requests.
  RankRequest bad_alpha;
  bad_alpha.alpha = 1.5;
  RankRequest bad_span;
  bad_span.p = 1e6;  // the transition build rejects the exponent span
  for (const auto& [position, bad] :
       std::vector<std::pair<size_t, RankRequest>>{
           {10, bad_alpha}, {12, bad_span}, {0, bad_span}}) {
    std::vector<RankRequest> requests = MixedBatch();
    requests.insert(requests.begin() + static_cast<ptrdiff_t>(position), bad);
    requests.push_back(bad_alpha);  // a second failure, never reached
    D2prEngine sequential = D2prEngine::Borrowing(*graph);
    Status first_error;
    for (const RankRequest& request : requests) {
      auto response = sequential.Rank(request);
      if (!response.ok()) {
        first_error = response.status();
        break;
      }
    }
    ASSERT_FALSE(first_error.ok());
    D2prEngine batched = D2prEngine::Borrowing(*graph);
    auto responses = batched.RankBatch(requests);
    ASSERT_FALSE(responses.ok());
    EXPECT_EQ(responses.status(), first_error) << first_error.ToString();
  }
  // A bad seed list fails its run's first request, as its Rank would.
  RankRequest out_of_range;
  out_of_range.seeds = {100000};
  std::vector<RankRequest> requests(2, out_of_range);
  D2prEngine sequential = D2prEngine::Borrowing(*graph);
  D2prEngine batched = D2prEngine::Borrowing(*graph);
  auto expected = sequential.Rank(requests[0]);
  auto responses = batched.RankBatch(requests);
  ASSERT_FALSE(expected.ok());
  ASSERT_FALSE(responses.ok());
  EXPECT_EQ(responses.status(), expected.status());
}

TEST(EngineTest, GaussSeidelAndPowerAgreeOnScores) {
  auto graph = TestGraph(8);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  RankRequest request;
  request.p = 0.75;
  request.tolerance = 1e-12;
  auto power = engine.Rank(request);
  request.method = SolverMethod::kGaussSeidel;
  auto gauss = engine.Rank(request);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_TRUE(gauss->transition_cache_hit);  // same transition model
  EXPECT_LT(DiffLInf(power->scores, gauss->scores), 1e-8);
  EXPECT_LT(gauss->iterations, power->iterations);
}

TEST(EngineTest, ForwardPushApproximatesPersonalizedPower) {
  auto graph = TestGraph(9);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  RankRequest request;
  request.p = 0.5;
  request.seeds = {7};
  auto power = engine.Rank(request);
  request.method = SolverMethod::kForwardPush;
  request.push_epsilon = 1e-9;
  auto push = engine.Rank(request);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(push.ok());
  EXPECT_TRUE(push->converged);
  EXPECT_GT(push->pushes, 0);
  EXPECT_GT(engine.stats().push_operations, 0);
  EXPECT_LT(DiffLInf(power->scores, push->scores), 1e-5);
}

TEST(EngineTest, ForwardPushHonorsDanglingPolicy) {
  // A graph with a dangling sink: 0 -> 1 -> 2, node 2 has no out-arcs.
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);

  RankRequest request;
  request.method = SolverMethod::kForwardPush;
  request.seeds = {0};
  request.push_epsilon = 1e-10;
  auto reinjected = engine.Rank(request);
  ASSERT_TRUE(reinjected.ok());
  request.dangling = DanglingPolicy::kRenormalize;
  auto dropped = engine.Rank(request);
  ASSERT_TRUE(dropped.ok());
  // Re-injection routes the sink's residual back to the seed; dropping it
  // loses that mass, so the estimates must differ.
  EXPECT_GT(Sum(reinjected->scores), Sum(dropped->scores) + 1e-6);
  // kSelfLoop has no forward-push equivalent and is rejected.
  request.dangling = DanglingPolicy::kSelfLoop;
  EXPECT_FALSE(engine.Rank(request).ok());
}

TEST(EngineTest, SeededRequestMatchesLegacyPersonalized) {
  auto graph = TestGraph(10);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  RankRequest request;
  request.p = 1.0;
  request.seeds = {3, 17, 42};
  auto response = engine.Rank(request);
  ASSERT_TRUE(response.ok());
  auto legacy = ComputePersonalizedD2pr(*graph, request.seeds, {.p = 1.0});
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(response->scores, legacy->scores);
  // Bad seeds propagate the teleport error.
  request.seeds = {3, 3};
  EXPECT_FALSE(engine.Rank(request).ok());
  request.seeds = {-1};
  EXPECT_FALSE(engine.Rank(request).ok());
}

TEST(EngineTest, OwningEngineKeepsGraphAlive) {
  auto graph = TestGraph(11, 100, 300);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine(std::move(*graph));
  EXPECT_EQ(engine.graph().num_nodes(), 100);
  auto response = engine.Rank({.p = 0.5});
  ASSERT_TRUE(response.ok());
  EXPECT_NEAR(Sum(response->scores), 1.0, 1e-9);
}

TEST(EngineTest, ForgetWarmStartColdStartsNextSolve) {
  auto graph = TestGraph(12);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  RankRequest request;
  request.p = 0.5;
  request.warm_start_tag = "t";
  ASSERT_TRUE(engine.Rank(request).ok());
  auto warm = engine.Rank(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_start_hit);
  engine.ForgetWarmStart("t");
  auto cold = engine.Rank(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->warm_start_hit);
}

TEST(EngineTest, ResetStatsAndClearCaches) {
  auto graph = TestGraph(13, 100, 300);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ASSERT_TRUE(engine.Rank({.p = 0.5}).ok());
  EXPECT_GT(engine.stats().transition_builds, 0);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().transition_builds, 0);
  EXPECT_EQ(engine.stats().requests, 0);
  engine.ClearCaches();
  auto rebuilt = engine.Rank({.p = 0.5});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt->transition_cache_hit);
}

TEST(EngineTest, SolverMethodNames) {
  EXPECT_STREQ(SolverMethodName(SolverMethod::kPower), "power");
  EXPECT_STREQ(SolverMethodName(SolverMethod::kGaussSeidel), "gauss-seidel");
  EXPECT_STREQ(SolverMethodName(SolverMethod::kForwardPush), "forward-push");
}

}  // namespace
}  // namespace d2pr
