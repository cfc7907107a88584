// Shard-local transition slices: construction parity, the
// no-whole-graph-matrix guarantee of the matrix-free kernel, sliced
// solver parity, edge-case shapes, and the hash ownership pin.
//
// The load-bearing claims proven here (see core/transition_slices.h):
//   * BuildTransitionSlicesLocal — which never calls
//     TransitionMatrix::Build (asserted via TransitionMatrix::BuildCount)
//     — produces bitwise the SAME factors from the shard rows plus the
//     O(|V|) metric vector, for every metric, p sign, and the weighted
//     beta blend;
//   * the sliced block solves inherit the parity contracts verbatim:
//     power bit-identical to SolvePagerank, and Gauss-Seidel on a shard
//     fleet (whose workers build their slices from cuts) within 1e-9;
//   * GraphPartitioner's kHash owner is node id modulo shard count, the
//     rule pre-cut shard files and the fleet's workers are cut by.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
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
#include "transition_test_util.h"

namespace d2pr {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
constexpr PartitionScheme kSchemes[] = {PartitionScheme::kRange,
                                        PartitionScheme::kHash};

/// Undirected, unweighted power-law graph (the paper's main regime).
CsrGraph UnweightedGraph() {
  Rng rng(42);
  auto graph = BarabasiAlbert(61, 2, &rng);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Directed, weighted graph with dangling nodes — the regime where the
/// beta blend and dangling handling actually bite.
CsrGraph WeightedDirectedGraph() {
  Rng rng(7);
  GraphBuilder builder(40, GraphKind::kDirected, /*weighted=*/true);
  for (NodeId v = 0; v < 40; ++v) {
    if (v >= 35) continue;  // 35..39 stay dangling
    const int degree = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j < degree; ++j) {
      const auto target = static_cast<NodeId>(rng.UniformInt(0, 39));
      if (target == v) continue;
      EXPECT_TRUE(builder.AddEdge(v, target, 0.5 + rng.Uniform() * 3.0).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Asserts `slices` carry bitwise `transition`'s factors and dangling
/// view, and the graph's weights exactly when the blend is on.
void ExpectSlicesMatchMatrix(const TransitionSlices& slices,
                             const CsrGraph& graph,
                             const TransitionMatrix& transition) {
  ASSERT_NE(slices.transition, nullptr);
  ExpectSameMatrix(*slices.transition, transition);
  if (transition.factors().has_blend()) {
    EXPECT_EQ(slices.arc_weights.data(), graph.weights().data());
    EXPECT_EQ(slices.arc_weights.size(), graph.weights().size());
  } else {
    EXPECT_TRUE(slices.arc_weights.empty());
  }
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
// Construction parity: local path == matrix, bit for bit.
// ---------------------------------------------------------------------

TEST(PartitionSliceTest, LocalBuildIsBitwiseIdenticalToTheMatrix) {
  const CsrGraph unweighted = UnweightedGraph();
  const CsrGraph weighted = WeightedDirectedGraph();
  for (const CsrGraph* graph : {&unweighted, &weighted}) {
    for (double p : {0.0, 0.7, -0.5}) {
      for (DegreeMetric metric :
           {DegreeMetric::kAuto, DegreeMetric::kOutDegree,
            DegreeMetric::kInDegree}) {
        TransitionConfig config;
        config.p = p;
        config.beta = graph->weighted() ? 0.3 : 0.0;
        config.metric = metric;
        auto transition = TransitionMatrix::Build(*graph, config);
        ASSERT_TRUE(transition.ok()) << transition.status().ToString();

        for (PartitionScheme scheme : kSchemes) {
          for (size_t shards : kShardCounts) {
            SCOPED_TRACE(std::string(graph->weighted() ? "weighted"
                                                       : "unweighted") +
                         " p=" + std::to_string(p) + " metric=" +
                         std::to_string(static_cast<int>(metric)) + " " +
                         PartitionSchemeName(scheme) + " x" +
                         std::to_string(shards));
            auto partition = GraphPartition::Build(
                *graph, {.scheme = scheme, .num_shards = shards});
            ASSERT_TRUE(partition.ok());

            auto local =
                BuildTransitionSlicesLocal(*graph, *partition, config);
            ASSERT_TRUE(local.ok()) << local.status().ToString();
            // The local path must match the matrix bit for bit —
            // including the sink rows and uniform fallbacks.
            ExpectSlicesMatchMatrix(*local, *graph, *transition);
          }
        }
      }
    }
  }
}

TEST(PartitionSliceTest, WeightedBetaBlendMetricsMatchBitwise) {
  // The beta blend adds the arc-weight / out-strength term; sweep beta
  // across its range (including the endpoints) under the weighted
  // metric, the config regime the paper's weighted model runs in.
  const CsrGraph graph = WeightedDirectedGraph();
  for (double beta : {0.0, 0.25, 1.0}) {
    TransitionConfig config;
    config.p = 0.5;
    config.beta = beta;
    config.metric = DegreeMetric::kOutStrength;
    auto transition = TransitionMatrix::Build(graph, config);
    ASSERT_TRUE(transition.ok());
    auto partition = GraphPartition::Build(
        graph, {.scheme = PartitionScheme::kHash, .num_shards = 3});
    ASSERT_TRUE(partition.ok());
    SCOPED_TRACE("beta=" + std::to_string(beta));
    auto local = BuildTransitionSlicesLocal(graph, *partition, config);
    ASSERT_TRUE(local.ok());
    ExpectSlicesMatchMatrix(*local, graph, *transition);
  }
}

TEST(PartitionSliceTest, SubgraphPathNeverMaterializesAWholeGraphMatrix) {
  // The whole point of the local path: prove it by counting Build()
  // materializations across a full local construction. The counter is
  // process-wide, so take a before/after delta rather than an absolute.
  const CsrGraph graph = UnweightedGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 4});
  ASSERT_TRUE(partition.ok());
  TransitionConfig config;
  config.p = 0.5;

  const uint64_t before = TransitionMatrix::BuildCount();
  auto local = BuildTransitionSlicesLocal(graph, *partition, config);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(TransitionMatrix::BuildCount(), before);

  // Sanity: the counter is live — an actual Build advances it.
  auto transition = TransitionMatrix::Build(graph, config);
  ASSERT_TRUE(transition.ok());
  EXPECT_EQ(TransitionMatrix::BuildCount(), before + 1);
}

TEST(PartitionSliceTest, LocalBuildRejectsExactlyWhatBuildRejects) {
  const CsrGraph graph = UnweightedGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());

  TransitionConfig bad_beta;
  bad_beta.beta = 1.5;
  EXPECT_EQ(
      BuildTransitionSlicesLocal(graph, *partition, bad_beta).status().code(),
      TransitionMatrix::Build(graph, bad_beta).status().code());

  TransitionConfig strength_on_unweighted;
  strength_on_unweighted.metric = DegreeMetric::kOutStrength;
  EXPECT_EQ(BuildTransitionSlicesLocal(graph, *partition,
                                       strength_on_unweighted)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Partition of a different graph: caught before any work.
  const CsrGraph other = WeightedDirectedGraph();
  auto other_partition = GraphPartition::Build(other, {.num_shards = 2});
  ASSERT_TRUE(other_partition.ok());
  EXPECT_EQ(BuildTransitionSlicesLocal(graph, *other_partition, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Edge-case shapes.
// ---------------------------------------------------------------------

TEST(PartitionSliceTest, EmptyGraphYieldsEmptySlices) {
  const CsrGraph empty;
  auto partition = GraphPartition::Build(empty, {.num_shards = 4});
  ASSERT_TRUE(partition.ok());
  auto local = BuildTransitionSlicesLocal(empty, *partition, {});
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->num_nodes(), 0);
  EXPECT_TRUE(local->transition->DanglingNodes().empty());
  auto transition = TransitionMatrix::Build(empty, {});
  ASSERT_TRUE(transition.ok());
  ExpectSlicesMatchMatrix(*local, empty, *transition);
}

TEST(PartitionSliceTest, AllDanglingShardHasEmptyRowsAndFullDanglingView) {
  // Range-partitioning 8 nodes into 4 shards puts the all-dangling tail
  // (nodes 6, 7 never get out-arcs) alone on the last shard.
  GraphBuilder builder(8, GraphKind::kDirected, /*weighted=*/false);
  for (NodeId v = 0; v < 6; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, (v + 1) % 6).ok());
    ASSERT_TRUE(builder.AddEdge(v, 6 + (v % 2)).ok());
  }
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  auto partition = GraphPartition::Build(
      *graph, {.scheme = PartitionScheme::kRange, .num_shards = 4});
  ASSERT_TRUE(partition.ok());
  ASSERT_EQ(partition->shard(3).dangling_owned.size(), 2u);

  TransitionConfig config;
  config.p = 0.4;
  auto transition = TransitionMatrix::Build(*graph, config);
  ASSERT_TRUE(transition.ok());
  auto local = BuildTransitionSlicesLocal(*graph, *partition, config);
  ASSERT_TRUE(local.ok());
  ExpectSlicesMatchMatrix(*local, *graph, *transition);
  EXPECT_EQ(local->transition->DanglingNodes(), (std::vector<NodeId>{6, 7}));
  // The dangling nodes still RECEIVE arcs: their owner's in-CSR is
  // non-empty even though the nodes emit nothing.
  EXPECT_GT(partition->shard(3).num_in_arcs(), 0);
}

TEST(PartitionSliceTest, MoreShardsThanNodesLeavesTrailingSlicesEmpty) {
  Rng rng(3);
  auto graph = ErdosRenyi(5, 8, &rng);
  ASSERT_TRUE(graph.ok());
  auto partition = GraphPartition::Build(*graph, {.num_shards = 9});
  ASSERT_TRUE(partition.ok());
  TransitionConfig config;
  config.p = -0.3;
  auto transition = TransitionMatrix::Build(*graph, config);
  ASSERT_TRUE(transition.ok());
  auto local = BuildTransitionSlicesLocal(*graph, *partition, config);
  ASSERT_TRUE(local.ok());
  ExpectSlicesMatchMatrix(*local, *graph, *transition);
  for (size_t s = 5; s < 9; ++s) {
    EXPECT_TRUE(partition->shard(s).owned.empty());
    EXPECT_EQ(partition->shard(s).num_in_arcs(), 0);
  }
}

TEST(PartitionSliceTest, ValidateSlicesCatchesEveryShapeMismatch) {
  // The block solvers check the slice shape before sweeping: a
  // transition over the partition's nodes, and the weights of every arc
  // when the blend is on.
  const CsrGraph graph = WeightedDirectedGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  auto good =
      BuildTransitionSlicesLocal(graph, *partition, {.p = 0.5, .beta = 0.5});
  ASSERT_TRUE(good.ok());
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  const auto code = [&](const TransitionSlices& slices) {
    return SolvePagerankPartitioned(slices, *partition, teleport, {})
        .status()
        .code();
  };
  EXPECT_EQ(code(*good), StatusCode::kOk);

  TransitionSlices no_transition = *good;
  no_transition.transition = nullptr;
  EXPECT_EQ(code(no_transition), StatusCode::kInvalidArgument);

  const CsrGraph other = UnweightedGraph();
  auto other_transition = TransitionMatrix::Build(other, {});
  ASSERT_TRUE(other_transition.ok());
  TransitionSlices wrong_nodes = *good;
  wrong_nodes.transition =
      std::make_shared<const TransitionMatrix>(std::move(*other_transition));
  EXPECT_EQ(code(wrong_nodes), StatusCode::kInvalidArgument);

  TransitionSlices missing_weights = *good;
  missing_weights.arc_weights = missing_weights.arc_weights.first(3);
  EXPECT_EQ(code(missing_weights), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Sliced solver parity.
// ---------------------------------------------------------------------

TEST(PartitionSliceTest, SlicedPowerIsBitIdenticalToTheReference) {
  const CsrGraph unweighted = UnweightedGraph();
  const CsrGraph weighted = WeightedDirectedGraph();
  for (const CsrGraph* graph : {&unweighted, &weighted}) {
    TransitionConfig config;
    config.p = 0.7;
    config.beta = graph->weighted() ? 0.3 : 0.0;
    auto transition = TransitionMatrix::Build(*graph, config);
    ASSERT_TRUE(transition.ok());

    for (DanglingPolicy policy :
         {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
          DanglingPolicy::kRenormalize}) {
      PagerankOptions options;
      options.alpha = 0.85;
      options.tolerance = 1e-12;
      options.max_iterations = 5000;
      options.dangling = policy;
      const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
      auto reference = SolvePagerank(*graph, *transition, teleport, options);
      ASSERT_TRUE(reference.ok());

      for (PartitionScheme scheme : kSchemes) {
        for (size_t shards : kShardCounts) {
          SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x" +
                       std::to_string(shards) + " policy=" +
                       std::to_string(static_cast<int>(policy)));
          auto partition = GraphPartition::Build(
              *graph, {.scheme = scheme, .num_shards = shards});
          ASSERT_TRUE(partition.ok());
          auto local = BuildTransitionSlicesLocal(*graph, *partition, config);
          ASSERT_TRUE(local.ok());
          auto block =
              SolvePagerankPartitioned(*local, *partition, teleport, options);
          ASSERT_TRUE(block.ok()) << block.status().ToString();
          EXPECT_EQ(block->scores, reference->scores);
          EXPECT_EQ(block->iterations, reference->iterations);
          EXPECT_EQ(block->residual, reference->residual);
        }
      }
    }
  }
}

TEST(PartitionSliceTest, SlicedGaussSeidelAgreesWithinTolerance) {
  const CsrGraph graph = WeightedDirectedGraph();
  TransitionConfig config;
  config.p = 0.6;
  config.beta = 0.3;
  auto transition = TransitionMatrix::Build(graph, config);
  ASSERT_TRUE(transition.ok());

  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-11;
  options.max_iterations = 5000;
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  auto reference =
      SolvePagerankGaussSeidel(graph, *transition, teleport, options);
  ASSERT_TRUE(reference.ok());

  for (size_t shards : kShardCounts) {
    SCOPED_TRACE("x" + std::to_string(shards));
    auto block = SolveOnFleet(graph, shards, PartitionScheme::kRange, config,
                              SolverMethod::kGaussSeidel, teleport, options);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_TRUE(block->converged);
    EXPECT_LE(MaxAbsDiff(block->scores, reference->scores), 1e-9);
    EXPECT_NEAR(Sum(block->scores), 1.0, 1e-12);
  }
}

TEST(PartitionSliceTest, SlicedSolversValidateShapes) {
  const CsrGraph graph = UnweightedGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  auto slices = BuildTransitionSlicesLocal(graph, *partition, {});
  ASSERT_TRUE(slices.ok());
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());

  TransitionSlices misshapen = *slices;
  misshapen.transition = nullptr;
  EXPECT_EQ(SolvePagerankPartitioned(misshapen, *partition, teleport,
                                     PagerankOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PartitionSliceTest, HashOwnershipIsNodeModuloShardCount) {
  // kHash owns node v on shard v % N for every node and shard count.
  Rng rng(11);
  auto graph = ErdosRenyi(257, 1000, &rng);
  ASSERT_TRUE(graph.ok());
  for (size_t shards : {1u, 2u, 3u, 4u, 7u, 8u, 16u}) {
    auto partition = GraphPartition::Build(
        *graph, {.scheme = PartitionScheme::kHash,
                 .num_shards = static_cast<size_t>(shards)});
    ASSERT_TRUE(partition.ok());
    for (NodeId v = 0; v < graph->num_nodes(); ++v) {
      ASSERT_EQ(partition->OwnerOf(v), static_cast<size_t>(v) % shards)
          << "node " << v << " shards " << shards;
    }
  }
}

}  // namespace
}  // namespace d2pr
