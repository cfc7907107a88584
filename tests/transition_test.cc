#include "core/transition.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pagerank.h"
#include "core/sweeps.h"
#include "core/transition_slices.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"
#include "transition_test_util.h"

namespace d2pr {
namespace {

CsrGraph BuildOrDie(GraphBuilder* builder) {
  auto result = builder->Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TransitionMatrix BuildTransitionOrDie(const CsrGraph& graph,
                                      const TransitionConfig& config) {
  auto result = TransitionMatrix::Build(graph, config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// The paper's Figure 1: node A (0) has neighbors B (1, degree 2),
// C (2, degree 3), D (3, degree 1). Edges: A-B, A-C, A-D, B-E, C-E, C-F.
CsrGraph Figure1Graph() {
  GraphBuilder builder(6, GraphKind::kUndirected);
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2).ok());
  EXPECT_TRUE(builder.AddEdge(0, 3).ok());
  EXPECT_TRUE(builder.AddEdge(1, 4).ok());
  EXPECT_TRUE(builder.AddEdge(2, 4).ok());
  EXPECT_TRUE(builder.AddEdge(2, 5).ok());
  return BuildOrDie(&builder);
}

// --- The paper's worked example (Figure 1(b)), exact values. ---

TEST(TransitionFigure1Test, ConventionalPageRankIsUniform) {
  CsrGraph graph = Figure1Graph();
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = 0.0});
  EXPECT_NEAR(t.Prob(graph, 0, 1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 3), 1.0 / 3.0, 1e-12);
}

TEST(TransitionFigure1Test, PenalizationPEquals2) {
  // deg^-2: B: 1/4, C: 1/9, D: 1. Sum = 49/36.
  // P(A->B) = (1/4)/(49/36) = 9/49 ≈ 0.18
  // P(A->C) = (1/9)/(49/36) = 4/49 ≈ 0.08
  // P(A->D) = 1/(49/36)    = 36/49 ≈ 0.74
  CsrGraph graph = Figure1Graph();
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = 2.0});
  EXPECT_NEAR(t.Prob(graph, 0, 1), 9.0 / 49.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 4.0 / 49.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 3), 36.0 / 49.0, 1e-12);
  // Paper reports these as 0.18 / 0.08 / 0.74 (0.7347 printed as 0.74).
  EXPECT_NEAR(t.Prob(graph, 0, 1), 0.18, 0.01);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 0.08, 0.01);
  EXPECT_NEAR(t.Prob(graph, 0, 3), 0.74, 0.01);
}

TEST(TransitionFigure1Test, BoostingPEqualsMinus2) {
  // deg^2: B: 4, C: 9, D: 1. Sum = 14.
  // Paper reports 0.29 / 0.64 / 0.07.
  CsrGraph graph = Figure1Graph();
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = -2.0});
  EXPECT_NEAR(t.Prob(graph, 0, 1), 4.0 / 14.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 9.0 / 14.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 3), 1.0 / 14.0, 1e-12);
}

// --- Desideratum limit cases (paper §3.1). ---

TEST(TransitionDesideratumTest, LargePositivePGoesToLowestDegree) {
  CsrGraph graph = Figure1Graph();
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = 60.0});
  // D has the lowest degree among A's neighbors: transition ~100% to D.
  EXPECT_GT(t.Prob(graph, 0, 3), 0.999999);
  EXPECT_LT(t.Prob(graph, 0, 1), 1e-6);
  EXPECT_LT(t.Prob(graph, 0, 2), 1e-6);
}

TEST(TransitionDesideratumTest, LargeNegativePGoesToHighestDegree) {
  CsrGraph graph = Figure1Graph();
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = -60.0});
  // C has the highest degree among A's neighbors.
  EXPECT_GT(t.Prob(graph, 0, 2), 0.999999);
}

TEST(TransitionDesideratumTest, PEqualsMinus1IsProportionalToDegree) {
  CsrGraph graph = Figure1Graph();
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = -1.0});
  EXPECT_NEAR(t.Prob(graph, 0, 1), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 3.0 / 6.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 3), 1.0 / 6.0, 1e-12);
}

TEST(TransitionDesideratumTest, PEquals1IsInverselyProportional) {
  CsrGraph graph = Figure1Graph();
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = 1.0});
  const double total = 1.0 / 2.0 + 1.0 / 3.0 + 1.0;
  EXPECT_NEAR(t.Prob(graph, 0, 1), (1.0 / 2.0) / total, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), (1.0 / 3.0) / total, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 3), 1.0 / total, 1e-12);
}

// --- Column-stochastic invariant across the whole p range (property). ---

class TransitionStochasticTest : public ::testing::TestWithParam<double> {};

TEST_P(TransitionStochasticTest, RowsOfEverySourceSumToOne) {
  Rng rng(2016);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = BuildTransitionOrDie(*graph, {.p = GetParam()});
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    double total = 0.0;
    for (NodeId u : graph->OutNeighbors(v)) total += t.Prob(*graph, v, u);
    EXPECT_NEAR(total, 1.0, 1e-9) << "source " << v << " p " << GetParam();
  }
}

TEST_P(TransitionStochasticTest, ProbabilitiesAreFiniteAndNonNegative) {
  Rng rng(7);
  auto graph = ErdosRenyi(150, 600, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = BuildTransitionOrDie(*graph, {.p = GetParam()});
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    for (NodeId v : graph->OutNeighbors(u)) {
      const double prob = t.Prob(*graph, u, v);
      EXPECT_TRUE(std::isfinite(prob));
      EXPECT_GE(prob, 0.0);
      EXPECT_LE(prob, 1.0 + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PGrid, TransitionStochasticTest,
                         ::testing::Values(-50.0, -4.0, -2.0, -1.0, -0.5,
                                           0.0, 0.5, 1.0, 2.0, 4.0, 50.0));

// --- Weighted graphs and the beta blend (paper §3.2.3). ---

CsrGraph WeightedTriangle() {
  GraphBuilder builder(3, GraphKind::kDirected, /*weighted=*/true);
  EXPECT_TRUE(builder.AddEdge(0, 1, 3.0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 2.0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0, 1.0).ok());
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(TransitionWeightedTest, BetaOneIsPureConnectionStrength) {
  CsrGraph graph = WeightedTriangle();
  TransitionMatrix t =
      BuildTransitionOrDie(graph, {.p = 2.0, .beta = 1.0});
  // beta = 1: T = T_conn regardless of p.
  EXPECT_NEAR(t.Prob(graph, 0, 1), 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 1.0 / 4.0, 1e-12);
}

TEST(TransitionWeightedTest, BetaZeroUsesOutStrengthMetric) {
  CsrGraph graph = WeightedTriangle();
  // Θ(1) = 2, Θ(2) = 1. p = 1: weights Θ^-1 -> 1/2 and 1.
  TransitionMatrix t =
      BuildTransitionOrDie(graph, {.p = 1.0, .beta = 0.0});
  EXPECT_NEAR(t.Prob(graph, 0, 1), (1.0 / 2.0) / (3.0 / 2.0), 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 1.0 / (3.0 / 2.0), 1e-12);
}

TEST(TransitionWeightedTest, BetaBlendsLinearly) {
  CsrGraph graph = WeightedTriangle();
  const double beta = 0.25;
  TransitionMatrix blend =
      BuildTransitionOrDie(graph, {.p = 1.0, .beta = beta});
  TransitionMatrix conn =
      BuildTransitionOrDie(graph, {.p = 1.0, .beta = 1.0});
  TransitionMatrix decoupled =
      BuildTransitionOrDie(graph, {.p = 1.0, .beta = 0.0});
  for (NodeId u : {0, 1, 2}) {
    for (NodeId v : graph.OutNeighbors(u)) {
      EXPECT_NEAR(blend.Prob(graph, u, v),
                  beta * conn.Prob(graph, u, v) +
                      (1 - beta) * decoupled.Prob(graph, u, v),
                  1e-12);
    }
  }
}

TEST(TransitionWeightedTest, BetaIgnoredOnUnweightedGraphs) {
  CsrGraph graph = Figure1Graph();
  TransitionMatrix with_beta =
      BuildTransitionOrDie(graph, {.p = 2.0, .beta = 0.75});
  TransitionMatrix without =
      BuildTransitionOrDie(graph, {.p = 2.0, .beta = 0.0});
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      EXPECT_DOUBLE_EQ(with_beta.Prob(graph, u, v), without.Prob(graph, u, v));
    }
  }
}

// --- Directed graphs: out-degree metric and sink semantics (§3.2.2). ---

TEST(TransitionDirectedTest, UsesOutDegreeOfDestination) {
  // 0 -> 1 (outdeg 2), 0 -> 2 (outdeg 1); 1 -> {0, 2}; 2 -> 0.
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  ASSERT_TRUE(builder.AddEdge(2, 0).ok());
  CsrGraph graph = BuildOrDie(&builder);
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = 1.0});
  // outdeg(1) = 2, outdeg(2) = 1: weights 1/2 and 1.
  EXPECT_NEAR(t.Prob(graph, 0, 1), (0.5) / 1.5, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 1.0 / 1.5, 1e-12);
}

TEST(TransitionDirectedTest, SinkCapturesRowWhenPenalizing) {
  // 0 -> 1 (sink, outdeg 0) and 0 -> 2 (outdeg 1).
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  ASSERT_TRUE(builder.AddEdge(2, 0).ok());
  CsrGraph graph = BuildOrDie(&builder);
  // p > 0: 0^-p -> infinity: the sink dominates (limit semantics).
  TransitionMatrix penal = BuildTransitionOrDie(graph, {.p = 1.0});
  EXPECT_DOUBLE_EQ(penal.Prob(graph, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(penal.Prob(graph, 0, 2), 0.0);
  // p < 0: 0^|p| -> 0: the sink is avoided entirely.
  TransitionMatrix boost = BuildTransitionOrDie(graph, {.p = -1.0});
  EXPECT_DOUBLE_EQ(boost.Prob(graph, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(boost.Prob(graph, 0, 2), 1.0);
  // p = 0: conventional, uniform.
  TransitionMatrix plain = BuildTransitionOrDie(graph, {.p = 0.0});
  EXPECT_DOUBLE_EQ(plain.Prob(graph, 0, 1), 0.5);
}

TEST(TransitionDirectedTest, AllSinkNeighborsWithBoostFallBackToUniform) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  CsrGraph graph = BuildOrDie(&builder);
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = -2.0});
  EXPECT_DOUBLE_EQ(t.Prob(graph, 0, 1), 0.5);
  EXPECT_DOUBLE_EQ(t.Prob(graph, 0, 2), 0.5);
}

// --- Validation and structure. ---

TEST(TransitionValidationTest, RejectsBadConfigs) {
  CsrGraph graph = Figure1Graph();
  EXPECT_FALSE(TransitionMatrix::Build(graph, {.p = 1.0, .beta = -0.1}).ok());
  EXPECT_FALSE(TransitionMatrix::Build(graph, {.p = 1.0, .beta = 1.5}).ok());
  EXPECT_FALSE(
      TransitionMatrix::Build(graph, {.p = std::nan("")}).ok());
  TransitionConfig strength_on_unweighted;
  strength_on_unweighted.metric = DegreeMetric::kOutStrength;
  EXPECT_FALSE(TransitionMatrix::Build(graph, strength_on_unweighted).ok());
}

TEST(TransitionValidationTest, DanglingNodesReported) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  CsrGraph graph = BuildOrDie(&builder);
  TransitionMatrix t = BuildTransitionOrDie(graph, {});
  EXPECT_FALSE(t.IsDangling(0));
  EXPECT_TRUE(t.IsDangling(1));
  EXPECT_TRUE(t.IsDangling(2));
  EXPECT_EQ(t.DanglingNodes(), (std::vector<NodeId>{1, 2}));
}

TEST(TransitionValidationTest, InDegreeMetricExtension) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  ASSERT_TRUE(builder.AddEdge(2, 0).ok());
  CsrGraph graph = BuildOrDie(&builder);
  // indeg(1) = 1, indeg(2) = 2. p = 1: weights 1 and 1/2.
  TransitionConfig config;
  config.p = 1.0;
  config.metric = DegreeMetric::kInDegree;
  TransitionMatrix t = BuildTransitionOrDie(graph, config);
  EXPECT_NEAR(t.Prob(graph, 0, 1), 1.0 / 1.5, 1e-12);
  EXPECT_NEAR(t.Prob(graph, 0, 2), 0.5 / 1.5, 1e-12);
}

TEST(TransitionMultiplyTest, MatchesManualComputation) {
  CsrGraph graph = Figure1Graph();
  TransitionMatrix t = BuildTransitionOrDie(graph, {.p = 0.0});
  std::vector<double> x{1.0, 0.0, 0.0, 0.0, 0.0, 0.0};  // all mass at A
  std::vector<double> out(6, -1.0);
  t.Multiply(graph, x, out);
  EXPECT_NEAR(out[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(out[2], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(out[3], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(TransitionMultiplyTest, PreservesTotalMassWithoutDangling) {
  Rng rng(55);
  auto graph = BarabasiAlbert(100, 2, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = BuildTransitionOrDie(*graph, {.p = 1.5});
  std::vector<double> x(100, 0.01);
  std::vector<double> out(100);
  t.Multiply(*graph, x, out);
  double total = 0.0;
  for (double v : out) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// --- The factored operator against the per-arc reference. ---

/// Asserts every arc's factored probability and the power-iteration
/// scores agree with the per-arc reference within 1e-12.
void ExpectMatchesReference(const CsrGraph& graph,
                            const TransitionConfig& config) {
  SCOPED_TRACE(testing::Message() << "p=" << config.p
                                  << " beta=" << config.beta);
  TransitionMatrix t = BuildTransitionOrDie(graph, config);
  const std::vector<double> reference = ReferenceArcProbs(graph, config);
  double max_prob_diff = 0.0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto targets = graph.OutNeighbors(u);
    const size_t begin = static_cast<size_t>(graph.ArcBegin(u));
    for (size_t k = 0; k < targets.size(); ++k) {
      max_prob_diff = std::max(
          max_prob_diff,
          std::abs(t.Prob(graph, u, targets[k]) - reference[begin + k]));
    }
  }
  EXPECT_LE(max_prob_diff, 1e-12);

  PagerankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 1000;
  auto solved = SolvePagerank(graph, t, options);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  const std::vector<double> want =
      ReferenceSolve(graph, reference, options.alpha, options.tolerance,
                     options.max_iterations);
  double max_score_diff = 0.0;
  for (size_t v = 0; v < want.size(); ++v) {
    max_score_diff = std::max(max_score_diff,
                              std::abs(solved->scores[v] - want[v]));
  }
  EXPECT_LE(max_score_diff, 1e-12);
}

/// Directed graph whose sinks (out-degree 0, so metric 0) exercise both
/// limit rules: row 0 reaches one sink among other targets, row 1 reaches
/// only sinks.
CsrGraph SinkGraph() {
  GraphBuilder builder(8, GraphKind::kDirected);
  const std::pair<NodeId, NodeId> arcs[] = {
      {0, 1}, {0, 2}, {0, 3}, {1, 3}, {1, 4}, {2, 0}, {2, 1}, {2, 5},
      {5, 0}, {5, 2}, {5, 6}, {5, 7}, {6, 0}, {7, 2}, {7, 5}};
  for (const auto& [u, v] : arcs) EXPECT_TRUE(builder.AddEdge(u, v).ok());
  return BuildOrDie(&builder);
}

/// Directed, weighted, with dangling nodes: out-strength metric 0 gives
/// the sink term, beta > 0 the blend term.
CsrGraph WeightedGraphWithDangling() {
  Rng rng(19);
  GraphBuilder builder(60, GraphKind::kDirected, /*weighted=*/true);
  for (NodeId v = 0; v < 55; ++v) {  // 55..59 stay dangling
    const int degree = 1 + static_cast<int>(rng.UniformInt(0, 4));
    for (int j = 0; j < degree; ++j) {
      const auto target = static_cast<NodeId>(rng.UniformInt(0, 59));
      if (target == v) continue;
      EXPECT_TRUE(builder.AddEdge(v, target, 0.5 + rng.Uniform() * 3.0).ok());
    }
  }
  return BuildOrDie(&builder);
}

TEST(TransitionFactoredTest, MatchesPerArcReferenceOnBarabasiAlbert) {
  Rng rng(2016);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  for (double p : PaperPGrid()) ExpectMatchesReference(*graph, {.p = p});
}

TEST(TransitionFactoredTest, MatchesPerArcReferenceWithMetricZeroSinks) {
  const CsrGraph graph = SinkGraph();
  std::vector<double> grid = PaperPGrid();
  grid.insert(grid.end(), {-60.0, -4.0, 0.0, 4.0, 60.0});
  for (double p : grid) ExpectMatchesReference(graph, {.p = p});

  // Both limit rules hold exactly: at p > 0 the sink takes row 0, at
  // p < 0 it gets nothing there, and the all-sink row 1 is uniform.
  TransitionMatrix penal = BuildTransitionOrDie(graph, {.p = 4.0});
  EXPECT_DOUBLE_EQ(penal.Prob(graph, 0, 3), 1.0);
  EXPECT_EQ(penal.Prob(graph, 0, 1), 0.0);
  TransitionMatrix boost = BuildTransitionOrDie(graph, {.p = -4.0});
  EXPECT_EQ(boost.Prob(graph, 0, 3), 0.0);
  EXPECT_DOUBLE_EQ(boost.Prob(graph, 1, 3), 0.5);
  EXPECT_DOUBLE_EQ(boost.Prob(graph, 1, 4), 0.5);
  EXPECT_TRUE(boost.factors().has_sink());
  EXPECT_FALSE(BuildTransitionOrDie(graph, {.p = 0.0}).factors().has_sink());
}

TEST(TransitionFactoredTest, MatchesPerArcReferenceUnderTheBetaBlend) {
  const CsrGraph graph = WeightedGraphWithDangling();
  for (double beta : {0.0, 0.5, 1.0}) {
    for (double p : PaperPGrid()) {
      ExpectMatchesReference(graph, {.p = p, .beta = beta});
    }
  }
}

/// A graph whose metrics are 1 and 2 only, so the exponent span at p is
/// |p|·ln 2.
CsrGraph TwoMetricGraph() {
  GraphBuilder builder(3, GraphKind::kDirected);
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2).ok());
  EXPECT_TRUE(builder.AddEdge(1, 0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 1).ok());
  return BuildOrDie(&builder);
}

TEST(TransitionFactoredTest, SpanJustInsideTheNormalRangeBuilds) {
  // 1000·ln 2 ≈ 693 < -ln(DBL_MIN) ≈ 708.4: u of a metric-2 node is
  // exp(-693) ≈ 6e-302, still a normal double.
  const CsrGraph graph = TwoMetricGraph();
  for (double p : {1000.0, -1000.0}) {
    TransitionMatrix t = BuildTransitionOrDie(graph, {.p = p});
    for (double u : t.factors().u) EXPECT_TRUE(std::isnormal(u)) << u;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_TRUE(std::isnormal(t.factors().c[static_cast<size_t>(v)]));
      double total = 0.0;
      for (NodeId w : graph.OutNeighbors(v)) total += t.Prob(graph, v, w);
      EXPECT_NEAR(total, 1.0, 1e-12) << "p=" << p << " row " << v;
    }
  }
}

TEST(TransitionFactoredTest, SpanJustPastTheNormalRangeIsOutOfRange) {
  // 1030·ln 2 ≈ 714 > 708.4: the factors would go subnormal. Every
  // builder refuses with the same OutOfRange naming the span.
  const CsrGraph graph = TwoMetricGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  for (double p : {1030.0, -1030.0}) {
    auto built = TransitionMatrix::Build(graph, {.p = p});
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(built.status().message().find("exponent span"),
              std::string::npos)
        << built.status().ToString();
    auto local = BuildTransitionSlicesLocal(graph, *partition, {.p = p});
    ASSERT_FALSE(local.ok());
    EXPECT_EQ(local.status().ToString(), built.status().ToString());
  }
}

TEST(MetricValuesTest, AutoResolution) {
  CsrGraph unweighted = Figure1Graph();
  EXPECT_EQ(ResolveMetric(unweighted, DegreeMetric::kAuto),
            DegreeMetric::kOutDegree);
  CsrGraph weighted = WeightedTriangle();
  EXPECT_EQ(ResolveMetric(weighted, DegreeMetric::kAuto),
            DegreeMetric::kOutStrength);
  const std::vector<double> values =
      MetricValues(weighted, DegreeMetric::kAuto);
  EXPECT_DOUBLE_EQ(values[0], 4.0);
  EXPECT_DOUBLE_EQ(values[1], 2.0);
  EXPECT_DOUBLE_EQ(values[2], 1.0);
}

}  // namespace
}  // namespace d2pr
