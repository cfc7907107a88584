#include "core/gauss_seidel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/teleport.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "linalg/vec_ops.h"

namespace d2pr {
namespace {

TransitionMatrix Transition(const CsrGraph& graph, double p = 0.0) {
  auto result = TransitionMatrix::Build(graph, {.p = p});
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

class GaussSeidelVsPowerTest : public ::testing::TestWithParam<double> {};

TEST_P(GaussSeidelVsPowerTest, AgreesWithPowerIteration) {
  Rng rng(1);
  auto graph = BarabasiAlbert(400, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph, GetParam());
  PagerankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  auto power = SolvePagerank(*graph, t, options);
  auto gauss = SolvePagerankGaussSeidel(*graph, t, options);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_TRUE(power->converged);
  EXPECT_TRUE(gauss->converged);
  EXPECT_LT(DiffLInf(power->scores, gauss->scores), 1e-9)
      << "p = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PGrid, GaussSeidelVsPowerTest,
                         ::testing::Values(-2.0, -0.5, 0.0, 0.5, 2.0));

TEST(GaussSeidelTest, ConvergesInFewerSweepsThanPower) {
  Rng rng(2);
  auto graph = BarabasiAlbert(1000, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  PagerankOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 500;
  auto power = SolvePagerank(*graph, t, options);
  auto gauss = SolvePagerankGaussSeidel(*graph, t, options);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_LT(gauss->iterations, power->iterations);
}

TEST(GaussSeidelTest, ScoresFormDistribution) {
  Rng rng(3);
  auto graph = ErdosRenyi(300, 900, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph, 1.0);
  auto result = SolvePagerankGaussSeidel(*graph, t, {});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(Sum(result->scores), 1.0, 1e-9);
  for (double s : result->scores) EXPECT_GE(s, 0.0);
}

TEST(GaussSeidelTest, HandlesDanglingTeleportPolicy) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  PagerankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  auto power = SolvePagerank(*graph, t, options);
  auto gauss = SolvePagerankGaussSeidel(*graph, t, options);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_LT(DiffLInf(power->scores, gauss->scores), 1e-8);
}

TEST(GaussSeidelTest, PersonalizedTeleport) {
  Rng rng(4);
  auto graph = WattsStrogatz(200, 3, 0.1, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph, 0.5);
  auto teleport = SeededTeleport(200, std::vector<NodeId>{42});
  ASSERT_TRUE(teleport.ok());
  PagerankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  auto power = SolvePagerank(*graph, t, *teleport, options);
  auto gauss = SolvePagerankGaussSeidel(*graph, t, *teleport, options);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_LT(DiffLInf(power->scores, gauss->scores), 1e-9);
}

TEST(GaussSeidelTest, ValidationMirrorsPowerIteration) {
  GraphBuilder builder(2, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  PagerankOptions bad;
  bad.alpha = 1.0;
  EXPECT_FALSE(SolvePagerankGaussSeidel(*graph, t, bad).ok());
  bad = PagerankOptions();
  bad.tolerance = -1.0;
  EXPECT_FALSE(SolvePagerankGaussSeidel(*graph, t, bad).ok());
  std::vector<double> short_teleport{1.0};
  EXPECT_FALSE(
      SolvePagerankGaussSeidel(*graph, t, short_teleport, {}).ok());
}

TEST(GaussSeidelTest, RejectsNonFiniteTeleport) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const std::vector<double> teleport{0.5, std::nan(""), 0.5};
  auto solved = SolvePagerankGaussSeidel(*graph, t, teleport, {});
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solved.status().message().find("finite"), std::string::npos);
}

TEST(GaussSeidelTest, EmptyGraphConverges) {
  CsrGraph graph;
  TransitionMatrix t = Transition(graph);
  auto result = SolvePagerankGaussSeidel(graph, t, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
}

}  // namespace
}  // namespace d2pr
