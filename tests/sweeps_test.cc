#include "core/sweeps.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "stats/correlation.h"

namespace d2pr {
namespace {

TEST(LinearGridTest, PaperPGrid) {
  const std::vector<double> grid = PaperPGrid();
  ASSERT_EQ(grid.size(), 17u);
  EXPECT_DOUBLE_EQ(grid.front(), -4.0);
  EXPECT_DOUBLE_EQ(grid.back(), 4.0);
  EXPECT_DOUBLE_EQ(grid[8], 0.0);  // p = 0 must be on the grid exactly
  for (size_t i = 1; i < grid.size(); ++i) {
    EXPECT_NEAR(grid[i] - grid[i - 1], 0.5, 1e-12);
  }
}

TEST(LinearGridTest, InclusiveEndpointsAndStep) {
  EXPECT_EQ(LinearGrid(0.0, 1.0, 0.25),
            (std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0}));
  EXPECT_EQ(LinearGrid(2.0, 2.0, 1.0), (std::vector<double>{2.0}));
}

TEST(LinearGridTest, NonDivisibleRangeStopsBeforeHi) {
  const std::vector<double> grid = LinearGrid(0.0, 1.0, 0.4);
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_DOUBLE_EQ(grid[2], 0.8);
}

TEST(LinearGridTest, PaperAlphaAndBetaGrids) {
  EXPECT_EQ(PaperAlphaGrid(), (std::vector<double>{0.5, 0.7, 0.85, 0.9}));
  EXPECT_EQ(PaperBetaGrid(),
            (std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0}));
}

TEST(LinearGridDeathTest, InvalidStepAborts) {
  EXPECT_DEATH(LinearGrid(0.0, 1.0, 0.0), "CHECK failed");
  EXPECT_DEATH(LinearGrid(1.0, 0.0, 0.5), "CHECK failed");
}

TEST(SweepPTest, EvaluatesEveryPoint) {
  Rng rng(12);
  auto graph = BarabasiAlbert(150, 2, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> p_values{-1.0, 0.0, 1.0};
  auto sweep = SweepP(*graph, p_values);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ((*sweep)[i].parameter, p_values[i]);
    EXPECT_TRUE((*sweep)[i].result.converged);
    EXPECT_EQ((*sweep)[i].result.scores.size(), 150u);
  }
  // Different p must actually change the scores.
  EXPECT_NE((*sweep)[0].result.scores, (*sweep)[2].result.scores);
}

TEST(SweepAlphaTest, EvaluatesEveryAlpha) {
  Rng rng(13);
  auto graph = ErdosRenyi(100, 300, &rng);
  ASSERT_TRUE(graph.ok());
  auto sweep = SweepAlpha(*graph, {0.5, 0.9});
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 2u);
  EXPECT_LT((*sweep)[0].result.iterations, (*sweep)[1].result.iterations);
}

TEST(SweepBetaTest, RequiresNothingSpecialOnWeighted) {
  GraphBuilder builder(4, GraphKind::kUndirected, /*weighted=*/true);
  ASSERT_TRUE(builder.AddEdge(0, 1, 5.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, 2.0).ok());
  ASSERT_TRUE(builder.AddEdge(3, 0, 1.0).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  D2prOptions base;
  base.p = 1.0;
  auto sweep = SweepBeta(*graph, PaperBetaGrid(), base);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->size(), 5u);
  // beta = 0 vs beta = 1 must differ (full de-coupling vs pure strength).
  EXPECT_NE((*sweep)[0].result.scores, (*sweep)[4].result.scores);
}

// The paper's result, pinned at tier 1: on a preferential-attachment
// graph conventional PageRank (p = 0) follows in-degree closely
// (Volkovich & Litvak predict the PageRank tail follows the in-degree
// tail), and strong penalization (p = +4) reverses the relationship.
TEST(SweepPTest, PaperGridDecouplesScoresFromInDegree) {
  Rng rng(1);
  auto graph = BarabasiAlbert(2000, 8, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> grid = PaperPGrid();
  auto sweep = SweepP(*graph, grid);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), grid.size());
  std::vector<double> in_degree;
  for (EdgeIndex d : graph->InDegrees()) {
    in_degree.push_back(static_cast<double>(d));
  }
  const SweepPoint& p0 = (*sweep)[8];
  const SweepPoint& p4 = sweep->back();
  ASSERT_EQ(p0.parameter, 0.0);
  ASSERT_EQ(p4.parameter, 4.0);
  EXPECT_TRUE(p0.result.converged);
  EXPECT_TRUE(p4.result.converged);
  EXPECT_GE(SpearmanCorrelation(in_degree, p0.result.scores), 0.85);
  EXPECT_LT(SpearmanCorrelation(in_degree, p4.result.scores), 0.0);
}

TEST(SweepTest, PropagatesInvalidConfig) {
  Rng rng(14);
  auto graph = ErdosRenyi(30, 60, &rng);
  ASSERT_TRUE(graph.ok());
  D2prOptions bad;
  bad.alpha = 1.5;
  EXPECT_FALSE(SweepP(*graph, {0.0}, bad).ok());
}

}  // namespace
}  // namespace d2pr
