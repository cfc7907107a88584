// Top-k serving parity: a truncated response — whether produced by the
// bounded-push TopKSolver or by exact-solver truncation — must agree
// with the exact full-vector top-k. Certified entries carry a hard
// guarantee (membership in the exact set, modulo 1e-9 near-ties); the
// suite holds every serving layer to it across the paper's p / alpha /
// beta grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/rank_request.h"
#include "common/rng.h"
#include "datagen/bipartite_world.h"
#include "datagen/classic_generators.h"
#include "datagen/projection.h"
#include "serve/serving_runtime.h"

namespace d2pr {
namespace {

/// A certified entry may miss the exact top-k set only across a near-tie:
/// its exact score must be within this of the k-th exact score.
constexpr double kNearTie = 1e-9;

std::vector<NodeId> ExactTopK(const std::vector<double>& scores, size_t k) {
  std::vector<NodeId> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const double sa = scores[static_cast<size_t>(a)];
    const double sb = scores[static_cast<size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  order.resize(std::min(k, order.size()));
  return order;
}

/// Every certified entry of `response.top` belongs to the exact top-k of
/// `exact` (near-ties excused); uncertified entries are unconstrained.
void ExpectCertifiedSubsetOfExact(const RankResponse& response,
                                  const std::vector<double>& exact,
                                  size_t k) {
  ASSERT_TRUE(response.truncated);
  ASSERT_TRUE(response.scores.empty());
  ASSERT_LE(response.top.size(), k);
  const std::vector<NodeId> truth = ExactTopK(exact, k);
  ASSERT_FALSE(truth.empty());
  const double kth = exact[static_cast<size_t>(truth.back())];
  for (const RankedEntry& entry : response.top) {
    if (!entry.certified) continue;
    const bool in_exact =
        std::find(truth.begin(), truth.end(), entry.node) != truth.end();
    const bool near_tie =
        exact[static_cast<size_t>(entry.node)] >= kth - kNearTie;
    EXPECT_TRUE(in_exact || near_tie)
        << "certified node " << entry.node << " (exact score "
        << exact[static_cast<size_t>(entry.node)]
        << ") is outside the exact top-" << k << " (k-th score " << kth
        << ")";
  }
}

struct ParityCase {
  double p;
  double alpha;
  double beta;
};

class TopKEngineParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(TopKEngineParityTest, PushCertifiedSetMatchesExactTopK) {
  const ParityCase param = GetParam();
  Rng rng(601);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);

  for (NodeId seed : {NodeId{2}, NodeId{47}, NodeId{188}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RankRequest exact_request;
    exact_request.p = param.p;
    exact_request.alpha = param.alpha;
    exact_request.beta = param.beta;
    exact_request.tolerance = 1e-13;
    exact_request.max_iterations = 2000;
    exact_request.seeds = {seed};
    auto exact = engine.Rank(exact_request);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ASSERT_TRUE(exact->converged);

    RankRequest truncated = exact_request;
    truncated.method = SolverMethod::kForwardPush;
    truncated.push_epsilon = 1e-8;
    truncated.top_k = 10;
    auto served = engine.Rank(truncated);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->method, SolverMethod::kForwardPush);
    EXPECT_GT(served->pushes, 0);
    ExpectCertifiedSubsetOfExact(*served, exact->scores, 10);
  }
}

TEST_P(TopKEngineParityTest, ExactSolverTruncationIsFullyCertified) {
  const ParityCase param = GetParam();
  Rng rng(602);
  auto graph = BarabasiAlbert(200, 3, &rng);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);

  for (SolverMethod method :
       {SolverMethod::kPower, SolverMethod::kGaussSeidel}) {
    SCOPED_TRACE(SolverMethodName(method));
    RankRequest full;
    full.p = param.p;
    full.alpha = param.alpha;
    full.beta = param.beta;
    full.method = method;
    full.seeds = {11};
    auto exact = engine.Rank(full);
    ASSERT_TRUE(exact.ok());

    RankRequest truncated = full;
    truncated.top_k = 10;
    auto served = engine.Rank(truncated);
    ASSERT_TRUE(served.ok());
    ASSERT_TRUE(served->truncated);
    ASSERT_TRUE(served->scores.empty());
    ASSERT_EQ(served->top.size(), 10u);
    EXPECT_EQ(served->uncertainty_gap, 0.0);

    // Exact truncation serves the exact scores, every entry certified,
    // in exact-top-k order.
    const std::vector<NodeId> truth = ExactTopK(exact->scores, 10);
    for (size_t i = 0; i < served->top.size(); ++i) {
      EXPECT_EQ(served->top[i].node, truth[i]) << "rank " << i;
      EXPECT_TRUE(served->top[i].certified);
      EXPECT_DOUBLE_EQ(served->top[i].score,
                       exact->scores[static_cast<size_t>(truth[i])]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopKEngineParityTest,
    ::testing::Values(ParityCase{0.0, 0.85, 0.0}, ParityCase{0.5, 0.85, 0.0},
                      ParityCase{1.0, 0.7, 0.0}, ParityCase{-1.0, 0.9, 0.0},
                      ParityCase{2.0, 0.5, 0.0}));

TEST(TopKEngineDispatchTest, NegativeTopKIsInvalidArgument) {
  Rng rng(603);
  auto graph = ErdosRenyi(30, 90, &rng);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  RankRequest request;
  request.top_k = -1;
  auto result = engine.Rank(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("top_k"), std::string::npos);
}

TEST(TopKEngineDispatchTest, BoundIndexIsBuiltOnceAndCached) {
  Rng rng(604);
  auto graph = BarabasiAlbert(150, 2, &rng);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  RankRequest request;
  request.method = SolverMethod::kForwardPush;
  request.seeds = {3};
  request.top_k = 5;
  ASSERT_TRUE(engine.Rank(request).ok());
  EXPECT_EQ(engine.transition_resolver().bound_builds(), 1);
  request.seeds = {9};  // same transition key, different query
  ASSERT_TRUE(engine.Rank(request).ok());
  EXPECT_EQ(engine.transition_resolver().bound_builds(), 1);
  request.p = 0.5;  // new transition key: a new index
  ASSERT_TRUE(engine.Rank(request).ok());
  EXPECT_EQ(engine.transition_resolver().bound_builds(), 2);
}

TEST(TopKEngineDispatchTest, ExactTruncationStoresFullWarmStart) {
  // A truncated power solve under a warm tag must store the FULL vector:
  // the follow-up tagged request has to warm-start from a complete
  // iterate, not a 5-entry stub.
  Rng rng(605);
  auto graph = BarabasiAlbert(120, 2, &rng);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  RankRequest request;
  request.seeds = {4};
  request.top_k = 5;
  request.warm_start_tag = "sweep";
  auto first = engine.Rank(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->truncated);
  auto second = engine.Rank(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->warm_start_hit);
  // Warm-started from the converged full solution: trivial to re-converge.
  EXPECT_LE(second->iterations, 2);
  ASSERT_EQ(second->top.size(), first->top.size());
  for (size_t i = 0; i < second->top.size(); ++i) {
    EXPECT_EQ(second->top[i].node, first->top[i].node);
    EXPECT_NEAR(second->top[i].score, first->top[i].score, 1e-9);
  }
}

TEST(TopKServingRuntimeTest, TruncatedResponsesAreServedAndCached) {
  Rng rng(606);
  auto graph = BarabasiAlbert(150, 2, &rng);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime =
      ServingRuntime::Borrowing(engine, {.score_cache_capacity = 16});
  RankRequest request;
  request.method = SolverMethod::kForwardPush;
  request.seeds = {8};
  request.top_k = 10;
  auto first = runtime.Rank(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->truncated);
  auto second = runtime.Rank(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(runtime.score_cache().stats().hits, 1);
  ASSERT_EQ(second->top.size(), first->top.size());
  for (size_t i = 0; i < second->top.size(); ++i) {
    EXPECT_EQ(second->top[i], first->top[i]);
  }

  // Exact and truncated forms of the same query must not share a cache
  // slot: the exact request still gets its full vector.
  RankRequest exact = request;
  exact.top_k = 0;
  auto full = runtime.Rank(exact);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_FALSE(full->scores.empty());
}

TEST(TopKTruncateTest, ExactTruncationHelperSelectsCertifiedTopK) {
  // Node 2's score sits 5e-10 below node 1's: the exact boundary still
  // separates them.
  const std::vector<double> scores = {0.4, 0.3, 0.3 - 5e-10, 0.1, 0.05};

  // Exact scores: everything selected is certified.
  std::vector<RankedEntry> strict = TruncateToTopK(scores, 2);
  ASSERT_EQ(strict.size(), 2u);
  EXPECT_EQ(strict[0].node, 0);
  EXPECT_EQ(strict[1].node, 1);
  EXPECT_TRUE(strict[0].certified);
  EXPECT_TRUE(strict[1].certified);

  // Deterministic tie handling: equal scores order by ascending node id.
  const std::vector<double> tied = {0.25, 0.25, 0.25, 0.25};
  std::vector<RankedEntry> ties = TruncateToTopK(tied, 2);
  ASSERT_EQ(ties.size(), 2u);
  EXPECT_EQ(ties[0].node, 0);
  EXPECT_EQ(ties[1].node, 1);

  // k >= n returns everything, certified (nothing is excluded).
  std::vector<RankedEntry> all = TruncateToTopK(scores, 10);
  ASSERT_EQ(all.size(), scores.size());
  for (const RankedEntry& entry : all) {
    EXPECT_TRUE(entry.certified);
  }

  // k = 0 and empty inputs degrade to an empty result.
  EXPECT_TRUE(TruncateToTopK(scores, 0).empty());
  EXPECT_TRUE(TruncateToTopK({}, 3).empty());
}

}  // namespace
}  // namespace d2pr
