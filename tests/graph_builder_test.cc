#include "graph/graph_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "common/rng.h"

namespace d2pr {
namespace {

TEST(GraphBuilderTest, RejectsOutOfRangeNodes) {
  GraphBuilder builder(3, GraphKind::kUndirected);
  EXPECT_EQ(builder.AddEdge(0, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(-1, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(5, 7).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.num_added(), 0);
}

TEST(GraphBuilderTest, RejectsWeightsOnUnweightedBuilder) {
  GraphBuilder builder(3, GraphKind::kUndirected, /*weighted=*/false);
  EXPECT_FALSE(builder.AddEdge(0, 1, 2.0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
}

TEST(GraphBuilderTest, RejectsNonPositiveWeights) {
  GraphBuilder builder(3, GraphKind::kDirected, /*weighted=*/true);
  EXPECT_FALSE(builder.AddEdge(0, 1, 0.0).ok());
  EXPECT_FALSE(builder.AddEdge(0, 1, -2.0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 1, 0.25).ok());
}

TEST(GraphBuilderTest, DuplicateSumMergesWeights) {
  GraphBuilder builder(2, GraphKind::kDirected, /*weighted=*/true);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.5).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 2.5).ok());
  auto graph = builder.Build(DuplicatePolicy::kSum);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_arcs(), 1);
  EXPECT_DOUBLE_EQ(graph->ArcWeight(0, 1), 4.0);
}

TEST(GraphBuilderTest, DuplicateKeepFirst) {
  GraphBuilder builder(2, GraphKind::kDirected, /*weighted=*/true);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.5).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 2.5).ok());
  auto graph = builder.Build(DuplicatePolicy::kKeepFirst);
  ASSERT_TRUE(graph.ok());
  EXPECT_DOUBLE_EQ(graph->ArcWeight(0, 1), 1.5);
}

/// An undirected weighted builder over a few nodes with many repeated
/// edges, in both orientations — enough arcs that the sort cannot fall
/// back to an insertion sort. `expected` receives each unordered pair's
/// weight as `policy` merges it in insertion order.
GraphBuilder DuplicateHeavyBuilder(uint64_t seed, DuplicatePolicy policy,
                                   std::map<std::pair<NodeId, NodeId>,
                                            double>* expected) {
  constexpr NodeId kNodes = 12;
  Rng rng(seed);
  GraphBuilder builder(kNodes, GraphKind::kUndirected, /*weighted=*/true);
  for (int edge = 0; edge < 400; ++edge) {
    const NodeId u = static_cast<NodeId>(rng.Below(kNodes));
    const NodeId v = static_cast<NodeId>(rng.Below(kNodes));
    const double weight = rng.Uniform(0.1, 3.0);
    EXPECT_TRUE(builder.AddEdge(u, v, weight).ok());
    const std::pair<NodeId, NodeId> key{std::min(u, v), std::max(u, v)};
    auto [it, added] = expected->emplace(key, weight);
    if (!added && policy == DuplicatePolicy::kSum) it->second += weight;
  }
  return builder;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Both arcs of every edge carry the insertion-order merge, bit for bit.
void ExpectInsertionOrderMerge(DuplicatePolicy policy) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::map<std::pair<NodeId, NodeId>, double> expected;
    GraphBuilder builder = DuplicateHeavyBuilder(seed, policy, &expected);
    auto graph = builder.Build(policy);
    ASSERT_TRUE(graph.ok());
    for (const auto& [pair, weight] : expected) {
      const auto [u, v] = pair;
      EXPECT_TRUE(SameBits(graph->ArcWeight(u, v), weight))
          << u << " -> " << v;
      EXPECT_TRUE(SameBits(graph->ArcWeight(v, u), weight))
          << v << " -> " << u;
    }
  }
}

TEST(GraphBuilderTest, UndirectedSumIsSymmetricAndInInsertionOrder) {
  ExpectInsertionOrderMerge(DuplicatePolicy::kSum);
}

TEST(GraphBuilderTest, UndirectedKeepFirstKeepsTheFirstWeightAdded) {
  ExpectInsertionOrderMerge(DuplicatePolicy::kKeepFirst);
}

TEST(GraphBuilderTest, DirectedKeepFirstKeepsTheFirstWeightAdded) {
  // Enough copies of one arc, among others, that the sort reorders them.
  GraphBuilder builder(4, GraphKind::kDirected, /*weighted=*/true);
  for (int copy = 0; copy < 100; ++copy) {
    for (NodeId v = 1; v < 4; ++v) {
      ASSERT_TRUE(builder.AddEdge(0, v, 1.0 + copy + 0.25 * v).ok());
    }
  }
  auto graph = builder.Build(DuplicatePolicy::kKeepFirst);
  ASSERT_TRUE(graph.ok());
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(graph->ArcWeight(0, v), 1.0 + 0.25 * v);
  }
}

TEST(GraphBuilderTest, DuplicateErrorFailsBuild) {
  GraphBuilder builder(2, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  auto graph = builder.Build(DuplicatePolicy::kError);
  EXPECT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, UndirectedAddsBothArcs) {
  GraphBuilder builder(3, GraphKind::kUndirected);
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  EXPECT_EQ(builder.num_added(), 2);  // both directions staged
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph->HasArc(0, 2));
  EXPECT_TRUE(graph->HasArc(2, 0));
}

TEST(GraphBuilderTest, UndirectedReciprocalAddsMerge) {
  // Adding (u, v) and (v, u) on an undirected builder is the same edge.
  GraphBuilder builder(3, GraphKind::kUndirected, /*weighted=*/true);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0, 3.0).ok());
  auto graph = builder.Build(DuplicatePolicy::kSum);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 1);
  EXPECT_DOUBLE_EQ(graph->ArcWeight(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(graph->ArcWeight(1, 0), 4.0);
}

TEST(GraphBuilderTest, EmptyBuildProducesIsolatedNodes) {
  GraphBuilder builder(5, GraphKind::kDirected);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 5);
  EXPECT_EQ(graph->num_arcs(), 0);
  EXPECT_EQ(graph->CountDangling(), 5);
}

TEST(GraphBuilderTest, BuilderReusableAfterBuild) {
  GraphBuilder builder(2, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  auto first = builder.Build();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->num_arcs(), 1);
  // Builder was drained; a fresh build is empty.
  auto second = builder.Build();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_arcs(), 0);
}

TEST(GraphBuilderTest, RowsComeOutSortedRegardlessOfInsertOrder) {
  GraphBuilder builder(6, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 5).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 3).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  auto nbrs = graph->OutNeighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphBuilderTest, LargeStarGraph) {
  constexpr NodeId kLeaves = 5000;
  GraphBuilder builder(kLeaves + 1, GraphKind::kUndirected);
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) {
    ASSERT_TRUE(builder.AddEdge(0, leaf).ok());
  }
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->OutDegree(0), kLeaves);
  EXPECT_EQ(graph->num_edges(), kLeaves);
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) {
    EXPECT_EQ(graph->OutDegree(leaf), 1);
  }
}

}  // namespace
}  // namespace d2pr
