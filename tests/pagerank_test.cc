#include "core/pagerank.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/teleport.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "linalg/vec_ops.h"

namespace d2pr {
namespace {

CsrGraph BuildOrDie(GraphBuilder* builder) {
  auto result = builder->Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TransitionMatrix Transition(const CsrGraph& graph, double p = 0.0) {
  auto result = TransitionMatrix::Build(graph, {.p = p});
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

PagerankResult Solve(const CsrGraph& graph, const TransitionMatrix& t,
                     PagerankOptions options = {}) {
  auto result = SolvePagerank(graph, t, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(PagerankTest, TwoNodeCycleIsUniform) {
  GraphBuilder builder(2, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  CsrGraph graph = BuildOrDie(&builder);
  PagerankResult pr = Solve(graph, Transition(graph));
  EXPECT_TRUE(pr.converged);
  EXPECT_NEAR(pr.scores[0], 0.5, 1e-9);
  EXPECT_NEAR(pr.scores[1], 0.5, 1e-9);
}

TEST(PagerankTest, ScoresSumToOne) {
  Rng rng(11);
  auto graph = BarabasiAlbert(500, 3, &rng);
  ASSERT_TRUE(graph.ok());
  PagerankResult pr = Solve(*graph, Transition(*graph, 1.0));
  EXPECT_NEAR(Sum(pr.scores), 1.0, 1e-9);
  EXPECT_TRUE(pr.converged);
}

TEST(PagerankTest, StarGraphClosedForm) {
  // Undirected star: hub 0, leaves 1..k. With uniform teleport, by symmetry
  // every leaf has score s and the hub h: h = alpha*k*s... derive from the
  // fixed point: leaf gets alpha * (h / k) + (1-alpha)/n; hub gets
  // alpha * (k * s_leaf_to_hub) ... Each leaf's entire walk mass goes to
  // the hub, so h = alpha * (sum of leaf scores) + (1-alpha)/n.
  constexpr int k = 9;
  constexpr int n = k + 1;
  constexpr double alpha = 0.85;
  GraphBuilder builder(n, GraphKind::kUndirected);
  for (NodeId leaf = 1; leaf <= k; ++leaf) {
    ASSERT_TRUE(builder.AddEdge(0, leaf).ok());
  }
  CsrGraph graph = BuildOrDie(&builder);
  PagerankOptions options;
  options.alpha = alpha;
  options.tolerance = 1e-14;
  PagerankResult pr = Solve(graph, Transition(graph), options);
  // Solve analytically: h + k*s = 1; h = alpha*k*s + (1-alpha)/n.
  const double s =
      (1.0 - (1.0 - alpha) / n) / (k * (1.0 + alpha));
  const double h = 1.0 - k * s;
  EXPECT_NEAR(pr.scores[0], h, 1e-10);
  for (NodeId leaf = 1; leaf <= k; ++leaf) {
    EXPECT_NEAR(pr.scores[leaf], s, 1e-10);
  }
}

TEST(PagerankTest, AlphaZeroReturnsTeleport) {
  Rng rng(13);
  auto graph = ErdosRenyi(50, 100, &rng);
  ASSERT_TRUE(graph.ok());
  PagerankOptions options;
  options.alpha = 0.0;
  PagerankResult pr = Solve(*graph, Transition(*graph), options);
  for (double score : pr.scores) EXPECT_NEAR(score, 1.0 / 50.0, 1e-12);
  EXPECT_TRUE(pr.converged);
}

TEST(PagerankTest, SymmetryOfEquivalentNodes) {
  // Path 0-1-2: nodes 0 and 2 are automorphic and must tie exactly.
  GraphBuilder builder(3, GraphKind::kUndirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  CsrGraph graph = BuildOrDie(&builder);
  PagerankResult pr = Solve(graph, Transition(graph));
  EXPECT_NEAR(pr.scores[0], pr.scores[2], 1e-12);
  EXPECT_GT(pr.scores[1], pr.scores[0]);  // middle node is more central
}

TEST(PagerankTest, DanglingTeleportPolicyPreservesMass) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());  // 1, 2 are sinks
  CsrGraph graph = BuildOrDie(&builder);
  PagerankOptions options;
  options.dangling = DanglingPolicy::kTeleport;
  PagerankResult pr = Solve(graph, Transition(graph), options);
  EXPECT_NEAR(Sum(pr.scores), 1.0, 1e-9);
  EXPECT_NEAR(pr.scores[1], pr.scores[2], 1e-12);  // symmetric sinks
  EXPECT_LT(pr.scores[0], pr.scores[1]);  // sinks accumulate
}

TEST(PagerankTest, DanglingSelfLoopPolicyPreservesMass) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  CsrGraph graph = BuildOrDie(&builder);
  PagerankOptions options;
  options.dangling = DanglingPolicy::kSelfLoop;
  PagerankResult pr = Solve(graph, Transition(graph), options);
  EXPECT_NEAR(Sum(pr.scores), 1.0, 1e-9);
  // Self-looping sinks hold strictly more mass than under teleportation.
  PagerankOptions teleport_options;
  teleport_options.dangling = DanglingPolicy::kTeleport;
  PagerankResult teleport_pr =
      Solve(graph, Transition(graph), teleport_options);
  EXPECT_GT(pr.scores[1], teleport_pr.scores[1]);
}

TEST(PagerankTest, DanglingRenormalizePolicyKeepsDistribution) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  CsrGraph graph = BuildOrDie(&builder);
  PagerankOptions options;
  options.dangling = DanglingPolicy::kRenormalize;
  PagerankResult pr = Solve(graph, Transition(graph), options);
  EXPECT_NEAR(Sum(pr.scores), 1.0, 1e-9);
}

TEST(PagerankTest, PersonalizedTeleportConcentratesNearSeed) {
  // Path 0-1-2-3-4; seed at 0. Scores must decay with distance from seed.
  GraphBuilder builder(5, GraphKind::kUndirected);
  for (NodeId v = 0; v + 1 < 5; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1).ok());
  }
  CsrGraph graph = BuildOrDie(&builder);
  auto teleport = SeededTeleport(5, std::vector<NodeId>{0});
  ASSERT_TRUE(teleport.ok());
  auto pr = SolvePagerank(graph, Transition(graph), *teleport, {});
  ASSERT_TRUE(pr.ok());
  EXPECT_GT(pr->scores[0], pr->scores[2]);
  EXPECT_GT(pr->scores[1], pr->scores[3]);
  EXPECT_GT(pr->scores[3], pr->scores[4]);
}

TEST(PagerankTest, HigherAlphaNeedsMoreIterations) {
  Rng rng(17);
  auto graph = BarabasiAlbert(200, 2, &rng);
  ASSERT_TRUE(graph.ok());
  PagerankOptions low;
  low.alpha = 0.5;
  PagerankOptions high;
  high.alpha = 0.95;
  PagerankResult pr_low = Solve(*graph, Transition(*graph), low);
  PagerankResult pr_high = Solve(*graph, Transition(*graph), high);
  EXPECT_LT(pr_low.iterations, pr_high.iterations);
}

TEST(PagerankTest, MaxIterationsCapReported) {
  Rng rng(19);
  auto graph = BarabasiAlbert(200, 2, &rng);
  ASSERT_TRUE(graph.ok());
  PagerankOptions options;
  options.max_iterations = 2;
  options.tolerance = 1e-15;
  PagerankResult pr = Solve(*graph, Transition(*graph), options);
  EXPECT_FALSE(pr.converged);
  EXPECT_EQ(pr.iterations, 2);
  EXPECT_GT(pr.residual, 0.0);
}

TEST(PagerankTest, ResidualDecreasesMonotonicallyInIterationCap) {
  Rng rng(23);
  auto graph = BarabasiAlbert(100, 2, &rng);
  ASSERT_TRUE(graph.ok());
  double last_residual = 1e30;
  for (int cap : {1, 3, 6, 12, 25}) {
    PagerankOptions options;
    options.max_iterations = cap;
    options.tolerance = 1e-15;
    PagerankResult pr = Solve(*graph, Transition(*graph), options);
    EXPECT_LT(pr.residual, last_residual);
    last_residual = pr.residual;
  }
}

TEST(PagerankTest, EmptyGraphConverges) {
  CsrGraph graph;
  auto pr = SolvePagerank(graph, Transition(graph), {});
  ASSERT_TRUE(pr.ok());
  EXPECT_TRUE(pr->converged);
  EXPECT_TRUE(pr->scores.empty());
}

TEST(PagerankValidationTest, RejectsBadOptions) {
  GraphBuilder builder(2, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  CsrGraph graph = BuildOrDie(&builder);
  TransitionMatrix t = Transition(graph);
  PagerankOptions bad_alpha;
  bad_alpha.alpha = 1.0;
  EXPECT_FALSE(SolvePagerank(graph, t, bad_alpha).ok());
  bad_alpha.alpha = -0.1;
  EXPECT_FALSE(SolvePagerank(graph, t, bad_alpha).ok());
  PagerankOptions bad_tol;
  bad_tol.tolerance = 0.0;
  EXPECT_FALSE(SolvePagerank(graph, t, bad_tol).ok());
  PagerankOptions bad_iters;
  bad_iters.max_iterations = 0;
  EXPECT_FALSE(SolvePagerank(graph, t, bad_iters).ok());
}

TEST(PagerankValidationTest, RejectsBadTeleport) {
  GraphBuilder builder(2, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  CsrGraph graph = BuildOrDie(&builder);
  TransitionMatrix t = Transition(graph);
  // Wrong size.
  std::vector<double> short_teleport{1.0};
  EXPECT_FALSE(SolvePagerank(graph, t, short_teleport, {}).ok());
  // Doesn't sum to one.
  std::vector<double> bad_sum{0.7, 0.7};
  EXPECT_FALSE(SolvePagerank(graph, t, bad_sum, {}).ok());
  // Negative entry.
  std::vector<double> negative{1.5, -0.5};
  EXPECT_FALSE(SolvePagerank(graph, t, negative, {}).ok());
}

TEST(PagerankValidationTest, RejectsNonFiniteTeleport) {
  // NaN fails every ordered comparison, so a `t < 0` check lets it
  // through; non-finite entries get their own InvalidArgument.
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  CsrGraph graph = BuildOrDie(&builder);
  TransitionMatrix t = Transition(graph);
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    const std::vector<double> teleport{0.5, bad, 0.5};
    EXPECT_EQ(ValidateTeleportVector(teleport, 3).code(),
              StatusCode::kInvalidArgument);
    auto solved = SolvePagerank(graph, t, teleport, {});
    ASSERT_FALSE(solved.ok());
    EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(solved.status().message().find("finite"), std::string::npos)
        << solved.status().ToString();
  }
}

TEST(PagerankValidationTest, RejectsNonFiniteWarmStart) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  CsrGraph graph = BuildOrDie(&builder);
  TransitionMatrix t = Transition(graph);
  const std::vector<double> teleport = UniformTeleport(3);
  for (double bad : {std::nan(""), HUGE_VAL}) {
    const std::vector<double> initial{0.5, bad, 0.5};
    auto solved = SolvePagerankFrom(graph, t, teleport, initial, {});
    ASSERT_FALSE(solved.ok());
    EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(solved.status().message().find("initial entries must be finite"),
              std::string::npos)
        << solved.status().ToString();
  }
}

TEST(PagerankValidationTest, RejectsMismatchedTransition) {
  GraphBuilder a(2, GraphKind::kDirected);
  ASSERT_TRUE(a.AddEdge(0, 1).ok());
  CsrGraph graph_a = BuildOrDie(&a);
  GraphBuilder b(3, GraphKind::kDirected);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  CsrGraph graph_b = BuildOrDie(&b);
  TransitionMatrix t_b = Transition(graph_b);
  EXPECT_FALSE(SolvePagerank(graph_a, t_b, {}).ok());
}

}  // namespace
}  // namespace d2pr
