// TopKSolver and DegreeBoundIndex unit behavior: the degree-derived
// in-probability bounds are exact maxima over arcs, the solver's
// per-entry intervals contain the true scores, certification implies
// membership in the exact top-k, and the push cap degrades to a
// best-effort (completed = false) state instead of an error.

#include "topk/topk_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/pagerank.h"
#include "core/teleport.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "topk/degree_bound.h"

namespace d2pr {
namespace {

TransitionMatrix Transition(const CsrGraph& graph, double p = 0.0) {
  auto result = TransitionMatrix::Build(graph, {.p = p});
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

std::vector<double> PointSeed(NodeId n, NodeId at) {
  std::vector<double> seed(static_cast<size_t>(n), 0.0);
  seed[static_cast<size_t>(at)] = 1.0;
  return seed;
}

/// Exact reference scores via power iteration to near machine precision.
std::vector<double> ExactScores(const CsrGraph& graph,
                                const TransitionMatrix& transition,
                                NodeId seed, double alpha = 0.85) {
  auto teleport =
      SeededTeleport(graph.num_nodes(), std::vector<NodeId>{seed});
  EXPECT_TRUE(teleport.ok());
  PagerankOptions options;
  options.alpha = alpha;
  options.tolerance = 1e-14;
  options.max_iterations = 2000;
  auto exact = SolvePagerank(graph, transition, *teleport, options);
  EXPECT_TRUE(exact.ok());
  return exact->scores;
}

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

TEST(TopKBoundTest, MaxInProbMatchesBruteForceMaximum) {
  Rng rng(501);
  auto graph = BarabasiAlbert(80, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph, 0.5);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  ASSERT_EQ(index.num_nodes(), graph->num_nodes());

  // Recompute the maximum incoming probability per destination by brute
  // force over every source's out-neighbor span (a BA graph has no
  // dangling nodes, so every arc's probability is live).
  std::vector<double> expected(static_cast<size_t>(graph->num_nodes()), 0.0);
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    ASSERT_FALSE(t.IsDangling(u));
    for (NodeId v : graph->OutNeighbors(u)) {
      auto& slot = expected[static_cast<size_t>(v)];
      slot = std::max(slot, t.Prob(*graph, u, v));
    }
  }
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(index.MaxInProb(v), expected[static_cast<size_t>(v)])
        << "node " << v;
  }
  EXPECT_FALSE(index.has_dangling());
}

TEST(TopKBoundTest, OrderIsDescendingWithDeterministicTies) {
  Rng rng(502);
  auto graph = ErdosRenyi(60, 240, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  const auto order = index.ByBoundDescending();
  ASSERT_EQ(order.size(), static_cast<size_t>(graph->num_nodes()));
  for (size_t i = 1; i < order.size(); ++i) {
    const double prev = index.MaxInProb(order[i - 1]);
    const double cur = index.MaxInProb(order[i]);
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }
}

TEST(TopKBoundTest, DanglingGraphSetsFlag) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  EXPECT_TRUE(index.has_dangling());
  // Node 0 has no in-arcs at all: its arc-delivered bound is exactly 0.
  EXPECT_EQ(index.MaxInProb(0), 0.0);
}

TEST(TopKSolverTest, ValidationErrors) {
  Rng rng(503);
  auto graph = ErdosRenyi(20, 60, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  const auto seed = PointSeed(graph->num_nodes(), 0);

  TopKOptions bad_k;
  bad_k.k = 0;
  EXPECT_FALSE(SolveTopK(*graph, t, index, seed, bad_k).ok());

  TopKOptions bad_alpha;
  bad_alpha.alpha = 1.0;
  EXPECT_FALSE(SolveTopK(*graph, t, index, seed, bad_alpha).ok());

  TopKOptions bad_epsilon;
  bad_epsilon.epsilon = 0.0;
  EXPECT_FALSE(SolveTopK(*graph, t, index, seed, bad_epsilon).ok());

  std::vector<double> not_a_distribution(20, 0.2);  // sums to 4
  EXPECT_FALSE(SolveTopK(*graph, t, index, not_a_distribution, {}).ok());

  std::vector<double> wrong_size(7, 1.0 / 7);
  EXPECT_FALSE(SolveTopK(*graph, t, index, wrong_size, {}).ok());
}

TEST(TopKSolverTest, BoundsContainExactScoresAndCertifiedMeansMembership) {
  Rng rng(504);
  auto graph = BarabasiAlbert(250, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph, 0.5);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  const std::vector<double> exact = ExactScores(*graph, t, 5);

  TopKOptions options;
  options.k = 10;
  auto result =
      SolveTopK(*graph, t, index, PointSeed(graph->num_nodes(), 5), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->completed);
  ASSERT_EQ(result->entries.size(), 10u);

  // The intervals are certificates: every true score must land inside
  // (modulo the 1e-14 exact-solver tolerance).
  for (const TopKEntry& entry : result->entries) {
    const double truth = exact[static_cast<size_t>(entry.node)];
    EXPECT_LE(entry.lower_bound, truth + 1e-11) << "node " << entry.node;
    EXPECT_GE(entry.upper_bound, truth - 1e-11) << "node " << entry.node;
  }

  const std::vector<NodeId> truth_top = ExactTopK(exact, 10);
  for (const TopKEntry& entry : result->entries) {
    if (!entry.certified) continue;
    EXPECT_NE(std::find(truth_top.begin(), truth_top.end(), entry.node),
              truth_top.end())
        << "certified node " << entry.node << " is not in the exact top-10";
  }
  if (result->certified) {
    EXPECT_EQ(result->uncertainty_gap, 0.0);
    for (const TopKEntry& entry : result->entries) {
      EXPECT_TRUE(entry.certified);
    }
  }
}

TEST(TopKSolverTest, CertifiesWellSeparatedSeedNeighborhood) {
  // A tight epsilon on a personalized query must fully certify: the seed
  // and its neighborhood dominate the tail by orders of magnitude.
  Rng rng(505);
  auto graph = BarabasiAlbert(400, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  TopKOptions options;
  options.k = 5;
  options.epsilon = 1e-9;
  auto result =
      SolveTopK(*graph, t, index, PointSeed(graph->num_nodes(), 7), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->certified);
  EXPECT_EQ(result->uncertainty_gap, 0.0);
  EXPECT_EQ(result->entries.front().node, 7);  // seed dominates (push_ppr)
  // Entries are ordered by lower bound descending.
  for (size_t i = 1; i < result->entries.size(); ++i) {
    EXPECT_GE(result->entries[i - 1].lower_bound,
              result->entries[i].lower_bound);
  }
}

TEST(TopKSolverTest, KLargerThanGraphReturnsAllNodes) {
  Rng rng(506);
  auto graph = ErdosRenyi(12, 40, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  TopKOptions options;
  options.k = 50;
  auto result =
      SolveTopK(*graph, t, index, PointSeed(graph->num_nodes(), 0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), 12u);
}

TEST(TopKSolverTest, PushCapReturnsBestEffortNotError) {
  Rng rng(507);
  auto graph = BarabasiAlbert(500, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  TopKOptions options;
  options.k = 10;
  options.epsilon = 1e-12;
  options.max_pushes = 3;
  auto result =
      SolveTopK(*graph, t, index, PointSeed(graph->num_nodes(), 0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->completed);
  EXPECT_LE(result->pushes, 3);
  EXPECT_FALSE(result->entries.empty());
  // Even a partial solve reports honest intervals and residual mass.
  EXPECT_GT(result->residual_mass, 0.0);
  for (const TopKEntry& entry : result->entries) {
    EXPECT_LE(entry.lower_bound, entry.upper_bound);
  }
}

TEST(TopKSolverTest, DanglingReinjectionWidensBoundsBySeedMass) {
  // 0 -> 1 -> sink: with reinjection the sink's outflow returns through
  // the seed, so the seed's upper bound must account for it; the solve
  // still brackets the exact teleport-policy scores.
  GraphBuilder builder(2, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  ASSERT_TRUE(index.has_dangling());

  TopKOptions options;
  options.k = 2;
  options.epsilon = 1e-12;
  auto result =
      SolveTopK(*graph, t, index, PointSeed(graph->num_nodes(), 0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);

  const std::vector<double> exact = ExactScores(*graph, t, 0);
  for (const TopKEntry& entry : result->entries) {
    const double truth = exact[static_cast<size_t>(entry.node)];
    EXPECT_LE(entry.lower_bound, truth + 1e-9);
    EXPECT_GE(entry.upper_bound, truth - 1e-9);
  }
}

}  // namespace
}  // namespace d2pr
