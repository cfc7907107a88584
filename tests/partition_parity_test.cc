// Partition-parity proof: block solves over edge-partitioned graphs must
// reproduce the single-graph reference solvers.
//
// The contract (see core/block_solver.h):
//   * block power iteration is BIT-IDENTICAL to SolvePagerank — scores,
//     iteration counts, and residuals — for every partition scheme and
//     shard count, every dangling policy, uniform and personalized
//     teleports, weighted and unweighted graphs;
//   * block Gauss-Seidel (Gauss-Seidel within a shard, Jacobi across
//     shards), run by an in-process shard fleet, agrees with
//     SolvePagerankGaussSeidel within 1e-9 at tolerance 1e-11, and over
//     one shard bit for bit.
// tests/partition_fuzz_test.cc asserts the same contract on random
// graphs, and tests/dist_parity_test.cc carries it to the shard fleet.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/block_solver.h"
#include "core/gauss_seidel.h"
#include "core/pagerank.h"
#include "core/teleport.h"
#include "core/transition.h"
#include "core/transition_slices.h"
#include "datagen/classic_generators.h"
#include "dist_test_util.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"
#include "linalg/vec_ops.h"

namespace d2pr {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
constexpr PartitionScheme kSchemes[] = {PartitionScheme::kRange,
                                        PartitionScheme::kHash};
constexpr double kGsTolerance = 1e-9;

/// Undirected, unweighted power-law graph (the paper's main regime).
CsrGraph UnweightedGraph() {
  Rng rng(42);
  auto graph = BarabasiAlbert(61, 2, &rng);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Directed, weighted graph with dangling nodes — the regime where
/// dangling policies and the beta blend actually bite.
CsrGraph WeightedDirectedGraph() {
  Rng rng(7);
  GraphBuilder builder(40, GraphKind::kDirected, /*weighted=*/true);
  for (NodeId v = 0; v < 40; ++v) {
    // Nodes 0..34 get out-arcs; 35..39 stay dangling.
    if (v >= 35) continue;
    const int degree = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j < degree; ++j) {
      const auto target = static_cast<NodeId>(rng.UniformInt(0, 39));
      if (target == v) continue;
      EXPECT_TRUE(
          builder.AddEdge(v, target, 0.5 + rng.Uniform() * 3.0).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// The transition under `config` sliced through `partition` — the block
/// power solver's input.
TransitionSlices Sliced(const CsrGraph& graph, const GraphPartition& partition,
                        const TransitionConfig& config) {
  auto slices = BuildTransitionSlicesLocal(graph, partition, config);
  EXPECT_TRUE(slices.ok()) << slices.status().ToString();
  return std::move(slices).value();
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

// ---------------------------------------------------------------------
// Solver-level parity.
// ---------------------------------------------------------------------

TEST(PartitionParityTest, PowerIsBitIdenticalForEverySchemeAndShardCount) {
  const CsrGraph unweighted = UnweightedGraph();
  const CsrGraph weighted = WeightedDirectedGraph();
  // The reference gathers along the whole graph (GatherColumns); the
  // matrix must reach the block sweep's sink-term and blend variants.
  bool saw_sink = false;
  bool saw_blend = false;
  for (const CsrGraph* graph : {&unweighted, &weighted}) {
    for (double p : {0.0, 0.7, -0.5}) {
      TransitionConfig config;
      config.p = p;
      config.beta = graph->weighted() ? 0.3 : 0.0;
      auto transition = TransitionMatrix::Build(*graph, config);
      ASSERT_TRUE(transition.ok());
      saw_sink = saw_sink || transition->factors().has_sink();
      saw_blend = saw_blend || transition->factors().has_blend();

      for (DanglingPolicy policy :
           {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
            DanglingPolicy::kRenormalize}) {
        PagerankOptions options;
        options.alpha = 0.85;
        options.tolerance = 1e-12;
        options.max_iterations = 5000;
        options.dangling = policy;

        const std::vector<double> uniform =
            UniformTeleport(graph->num_nodes());
        auto seeded = SeededTeleport(graph->num_nodes(),
                                     std::vector<NodeId>{1, 5, 17});
        ASSERT_TRUE(seeded.ok());
        const std::vector<double>& personalized = *seeded;

        for (const std::vector<double>* teleport :
             {&uniform, &personalized}) {
          auto reference =
              SolvePagerank(*graph, *transition, *teleport, options);
          ASSERT_TRUE(reference.ok()) << reference.status().ToString();
          ASSERT_TRUE(reference->converged);

          for (PartitionScheme scheme : kSchemes) {
            for (size_t shards : kShardCounts) {
              SCOPED_TRACE(std::string(graph->weighted() ? "weighted"
                                                         : "unweighted") +
                           " p=" + std::to_string(p) + " policy=" +
                           std::to_string(static_cast<int>(policy)) + " " +
                           PartitionSchemeName(scheme) + " x" +
                           std::to_string(shards) +
                           (teleport == &uniform ? " uniform" : " seeded"));
              auto partition = GraphPartition::Build(
                  *graph, {.scheme = scheme, .num_shards = shards});
              ASSERT_TRUE(partition.ok());
              auto block = SolvePagerankPartitioned(
                  Sliced(*graph, *partition, config), *partition, *teleport,
                  options);
              ASSERT_TRUE(block.ok()) << block.status().ToString();
              // Bitwise: vector operator== compares every double exactly.
              EXPECT_EQ(block->scores, reference->scores);
              EXPECT_EQ(block->iterations, reference->iterations);
              EXPECT_EQ(block->residual, reference->residual);
              EXPECT_EQ(block->converged, reference->converged);
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_sink);
  EXPECT_TRUE(saw_blend);
}

TEST(PartitionParityTest, GaussSeidelAgreesWithinTolerance) {
  const CsrGraph unweighted = UnweightedGraph();
  const CsrGraph weighted = WeightedDirectedGraph();
  for (const CsrGraph* graph : {&unweighted, &weighted}) {
    TransitionConfig config;
    config.p = 0.6;
    auto transition = TransitionMatrix::Build(*graph, config);
    ASSERT_TRUE(transition.ok());

    PagerankOptions options;
    options.alpha = 0.85;
    options.tolerance = 1e-11;
    options.max_iterations = 5000;

    const std::vector<double> uniform = UniformTeleport(graph->num_nodes());
    auto seeded =
        SeededTeleport(graph->num_nodes(), std::vector<NodeId>{2, 9});
    ASSERT_TRUE(seeded.ok());
    const std::vector<double>& personalized = *seeded;

    for (const std::vector<double>* teleport : {&uniform, &personalized}) {
      auto reference =
          SolvePagerankGaussSeidel(*graph, *transition, *teleport, options);
      ASSERT_TRUE(reference.ok());
      ASSERT_TRUE(reference->converged);

      for (PartitionScheme scheme : kSchemes) {
        for (size_t shards : kShardCounts) {
          SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x" +
                       std::to_string(shards));
          auto block = SolveOnFleet(*graph, shards, scheme, config,
                                    SolverMethod::kGaussSeidel, *teleport,
                                    options);
          ASSERT_TRUE(block.ok()) << block.status().ToString();
          EXPECT_TRUE(block->converged);
          EXPECT_LE(MaxAbsDiff(block->scores, reference->scores),
                    kGsTolerance);
          EXPECT_NEAR(Sum(block->scores), 1.0, 1e-12);
        }
      }
    }
  }
}

TEST(PartitionParityTest, SingleShardGaussSeidelEqualsBlockFixedPoint) {
  // With one shard there is no frozen remote data: the in-shard
  // Gauss-Seidel order IS the global order, so the paths coincide
  // exactly.
  const CsrGraph graph = UnweightedGraph();
  auto transition = TransitionMatrix::Build(graph, {});
  ASSERT_TRUE(transition.ok());
  PagerankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 5000;
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  auto reference =
      SolvePagerankGaussSeidel(graph, *transition, teleport, options);
  ASSERT_TRUE(reference.ok());
  auto block = SolveOnFleet(graph, 1, PartitionScheme::kRange, {},
                            SolverMethod::kGaussSeidel, teleport, options);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block->scores, reference->scores);
  EXPECT_EQ(block->iterations, reference->iterations);
  EXPECT_EQ(block->residual, reference->residual);
}

TEST(PartitionParityTest, BlockSolversValidateLikeTheReference) {
  const CsrGraph graph = UnweightedGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  const TransitionSlices slices = Sliced(graph, *partition, {});

  PagerankOptions bad_alpha;
  bad_alpha.alpha = 1.0;
  EXPECT_EQ(SolvePagerankPartitioned(slices, *partition, teleport, bad_alpha)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  PagerankOptions bad_tolerance;
  bad_tolerance.tolerance = 0.0;
  EXPECT_EQ(SolvePagerankPartitioned(slices, *partition, teleport,
                                     bad_tolerance)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveOnFleet(graph, 2, PartitionScheme::kRange, {},
                         SolverMethod::kGaussSeidel, teleport, bad_tolerance)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Teleport of the wrong size, and a partition of the wrong graph.
  std::vector<double> short_teleport(3, 1.0 / 3.0);
  EXPECT_EQ(SolvePagerankPartitioned(slices, *partition, short_teleport,
                                     PagerankOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const CsrGraph other = WeightedDirectedGraph();
  auto other_partition = GraphPartition::Build(other, {.num_shards = 2});
  ASSERT_TRUE(other_partition.ok());
  EXPECT_EQ(SolvePagerankPartitioned(slices, *other_partition, teleport,
                                     PagerankOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PartitionParityTest, BlockPowerRejectsNonFiniteTeleport) {
  const CsrGraph graph = UnweightedGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  teleport[1] = std::nan("");
  auto solved = SolvePagerankPartitioned(Sliced(graph, *partition, {}),
                                         *partition, teleport, {});
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solved.status().message().find("finite"), std::string::npos);
}

TEST(PartitionParityTest, EmptyGraphSolvesTrivially) {
  auto partition = GraphPartition::Build(CsrGraph(), {.num_shards = 4});
  ASSERT_TRUE(partition.ok());
  auto solved =
      SolvePagerankPartitioned(Sliced(CsrGraph(), *partition, {}),
                               *partition, {}, PagerankOptions{});
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved->converged);
  EXPECT_TRUE(solved->scores.empty());
}

TEST(PartitionParityTest, GaussSeidelRenormalizeIsRejectedNotApproximated) {
  // The renormalized Gauss-Seidel fixed point depends on the sweep order
  // once dangling mass is dropped, so a block sweep cannot reproduce the
  // single-graph reference; the fleet's coordinator must fail loudly
  // rather than serve an O(1e-3)-off solution.
  const CsrGraph graph = WeightedDirectedGraph();  // has dangling nodes
  auto transition = TransitionMatrix::Build(graph, {});
  ASSERT_TRUE(transition.ok());
  PagerankOptions options;
  options.dangling = DanglingPolicy::kRenormalize;
  auto solved = SolveOnFleet(graph, 2, PartitionScheme::kRange, {},
                             SolverMethod::kGaussSeidel,
                             UniformTeleport(graph.num_nodes()), options);
  EXPECT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);

  // Power iteration under kRenormalize stays fully (bitwise) supported.
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  auto power = SolvePagerankPartitioned(
      Sliced(graph, *partition, {}), *partition,
      UniformTeleport(graph.num_nodes()), options);
  ASSERT_TRUE(power.ok()) << power.status().ToString();
  auto reference = SolvePagerank(graph, *transition,
                                 UniformTeleport(graph.num_nodes()), options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(power->scores, reference->scores);
}

}  // namespace
}  // namespace d2pr
