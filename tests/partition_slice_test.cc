// Shard-local transition slices: construction parity, the
// no-whole-graph-matrix guarantee of the matrix-free kernel, sliced
// solver parity, edge-case shapes, and the serving-stack ownership pin.
//
// The load-bearing claims proven here (see core/transition_slices.h):
//   * BuildTransitionSlices is a pure permutation of the matrix:
//     in_probs[s][idx] == probs()[shard.in_arc_index[idx]], bit for bit;
//   * BuildTransitionSlicesLocal — which never materializes a whole-graph
//     TransitionMatrix (asserted via TransitionMatrix::BuildCount) —
//     produces bitwise the SAME slices from the shard rows plus the
//     O(|V|) broadcast metric state, for every metric, p sign, and the
//     weighted beta blend;
//   * the sliced block solvers inherit the parity contracts verbatim:
//     power bit-identical to SolvePagerank, Gauss-Seidel within 1e-9;
//   * GraphPartitioner's kHash ownership stays identical to
//     serve/ModuloShardMap, the coupling the serving stack routes by.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/rank_request.h"
#include "common/rng.h"
#include "core/block_solver.h"
#include "core/gauss_seidel.h"
#include "core/pagerank.h"
#include "core/teleport.h"
#include "core/transition.h"
#include "core/transition_slices.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"
#include "linalg/vec_ops.h"
#include "serve/engine_router.h"

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

/// Asserts `slices` is bitwise the permutation of `transition` through
/// `partition`'s in-CSR arc index — the structural cross-check both
/// construction paths must satisfy.
void ExpectSlicesMatchMatrix(const TransitionSlices& slices,
                             const GraphPartition& partition,
                             const TransitionMatrix& transition) {
  ASSERT_TRUE(partition.ValidateSlices(slices).ok());
  const auto probs = transition.probs();
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    const PartitionShard& shard = partition.shard(s);
    ASSERT_EQ(slices.in_probs[s].size(), shard.in_arc_index.size());
    for (size_t idx = 0; idx < shard.in_arc_index.size(); ++idx) {
      // Bitwise, not approximate: EXPECT_EQ on doubles.
      EXPECT_EQ(slices.in_probs[s][idx],
                probs[static_cast<size_t>(shard.in_arc_index[idx])])
          << "shard " << s << " slice position " << idx;
    }
  }
  EXPECT_EQ(slices.dangling, transition.DanglingNodes());
  for (NodeId v = 0; v < slices.num_nodes; ++v) {
    EXPECT_EQ(slices.is_dangling[static_cast<size_t>(v)] != 0,
              transition.IsDangling(v));
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
// Construction parity: matrix path == local path, bit for bit.
// ---------------------------------------------------------------------

TEST(PartitionSliceTest, BothBuildPathsAreBitwiseIdenticalToTheMatrix) {
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

            auto from_matrix = BuildTransitionSlices(*partition, *transition);
            ASSERT_TRUE(from_matrix.ok());
            ExpectSlicesMatchMatrix(*from_matrix, *partition, *transition);

            auto local =
                BuildTransitionSlicesLocal(*graph, *partition, config);
            ASSERT_TRUE(local.ok()) << local.status().ToString();
            // The local path must match the matrix path bit for bit —
            // including the ±inf sentinel rows and uniform fallbacks.
            EXPECT_EQ(local->in_probs, from_matrix->in_probs);
            EXPECT_EQ(local->dangling, from_matrix->dangling);
            EXPECT_EQ(local->is_dangling, from_matrix->is_dangling);
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
    ExpectSlicesMatchMatrix(*local, *partition, *transition);
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
  auto transition = TransitionMatrix::Build(other, {});
  ASSERT_TRUE(transition.ok());
  EXPECT_EQ(
      BuildTransitionSlices(*partition, *transition).status().code(),
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
  EXPECT_EQ(local->num_nodes, 0);
  ASSERT_EQ(local->in_probs.size(), 4u);
  for (const auto& slice : local->in_probs) EXPECT_TRUE(slice.empty());
  EXPECT_TRUE(local->dangling.empty());
  auto transition = TransitionMatrix::Build(empty, {});
  ASSERT_TRUE(transition.ok());
  ExpectSlicesMatchMatrix(*local, *partition, *transition);
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
  ExpectSlicesMatchMatrix(*local, *partition, *transition);
  EXPECT_EQ(local->dangling, (std::vector<NodeId>{6, 7}));
  // The dangling nodes still RECEIVE arcs: their owner's slice is
  // non-empty even though the nodes emit nothing.
  EXPECT_FALSE(local->in_probs[3].empty());
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
  ExpectSlicesMatchMatrix(*local, *partition, *transition);
  for (size_t s = 5; s < 9; ++s) {
    EXPECT_TRUE(partition->shard(s).owned.empty());
    EXPECT_TRUE(local->in_probs[s].empty());
  }
}

TEST(PartitionSliceTest, ValidateSlicesCatchesEveryShapeMismatch) {
  const CsrGraph graph = UnweightedGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  auto transition = TransitionMatrix::Build(graph, {});
  ASSERT_TRUE(transition.ok());
  auto good = BuildTransitionSlices(*partition, *transition);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(partition->ValidateSlices(*good).ok());

  TransitionSlices wrong_nodes = *good;
  wrong_nodes.num_nodes = 3;
  EXPECT_FALSE(partition->ValidateSlices(wrong_nodes).ok());

  TransitionSlices wrong_shards = *good;
  wrong_shards.in_probs.pop_back();
  EXPECT_FALSE(partition->ValidateSlices(wrong_shards).ok());

  TransitionSlices wrong_arcs = *good;
  wrong_arcs.in_probs[0].push_back(0.0);
  EXPECT_FALSE(partition->ValidateSlices(wrong_arcs).ok());

  TransitionSlices wrong_bitmap = *good;
  wrong_bitmap.is_dangling.pop_back();
  EXPECT_FALSE(partition->ValidateSlices(wrong_bitmap).ok());
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
          // Both builders, both solved; each result must carry the
          // reference's bits.
          auto from_matrix = BuildTransitionSlices(*partition, *transition);
          ASSERT_TRUE(from_matrix.ok());
          auto local = BuildTransitionSlicesLocal(*graph, *partition, config);
          ASSERT_TRUE(local.ok());
          for (const TransitionSlices* slices :
               {&*from_matrix, &*local}) {
            auto block = SolvePagerankPartitioned(*slices, *partition,
                                                  teleport, options);
            ASSERT_TRUE(block.ok()) << block.status().ToString();
            EXPECT_EQ(block->scores, reference->scores);
            EXPECT_EQ(block->iterations, reference->iterations);
            EXPECT_EQ(block->residual, reference->residual);
          }
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
    auto partition = GraphPartition::Build(graph, {.num_shards = shards});
    ASSERT_TRUE(partition.ok());
    auto local = BuildTransitionSlicesLocal(graph, *partition, config);
    ASSERT_TRUE(local.ok());
    auto block =
        SolveGaussSeidelPartitioned(*local, *partition, teleport, options);
    ASSERT_TRUE(block.ok());
    EXPECT_TRUE(block->converged);
    EXPECT_LE(MaxAbsDiff(block->scores, reference->scores), 1e-9);
    EXPECT_NEAR(Sum(block->scores), 1.0, 1e-12);

    // And bit-identical to the block solve over the matrix's slices,
    // which runs the same frozen-exchange sweep over the same
    // probabilities.
    auto from_matrix = BuildTransitionSlices(*partition, *transition);
    ASSERT_TRUE(from_matrix.ok());
    auto matrix_block =
        SolveGaussSeidelPartitioned(*from_matrix, *partition, teleport,
                                    options);
    ASSERT_TRUE(matrix_block.ok());
    EXPECT_EQ(block->scores, matrix_block->scores);
    EXPECT_EQ(block->iterations, matrix_block->iterations);
  }
}

TEST(PartitionSliceTest, SlicedSolversValidateShapes) {
  const CsrGraph graph = UnweightedGraph();
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  auto transition = TransitionMatrix::Build(graph, {});
  ASSERT_TRUE(transition.ok());
  auto slices = BuildTransitionSlices(*partition, *transition);
  ASSERT_TRUE(slices.ok());
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());

  TransitionSlices misshapen = *slices;
  misshapen.in_probs[0].pop_back();
  EXPECT_EQ(SolvePagerankPartitioned(misshapen, *partition, teleport,
                                     PagerankOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  PagerankOptions renormalize;
  renormalize.dangling = DanglingPolicy::kRenormalize;
  EXPECT_EQ(SolveGaussSeidelPartitioned(*slices, *partition, teleport,
                                        renormalize)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Serving stack.
// ---------------------------------------------------------------------

TEST(PartitionSliceTest, RouterFromMatrixModeKeepsMatrixAccounting) {
  // The router slices the resolved matrix and keeps the historical
  // matrix-side observables: one build then cache hits, slices riding
  // behind.
  const CsrGraph graph = UnweightedGraph();
  RouterOptions options;
  options.num_shards = 2;
  options.policy = RoutingPolicy::kPartitionedSubgraph;
  EngineRouter router = EngineRouter::Borrowing(graph, options);

  RankRequest request;
  request.p = 0.5;
  ASSERT_TRUE(router.Rank(request).ok());
  EXPECT_EQ(router.partition_transition_builds(), 1);
  EXPECT_EQ(router.partition_slice_builds(), 1);
  auto again = router.Rank(request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->transition_cache_hit);
  EXPECT_EQ(router.partition_transition_builds(), 1);
  EXPECT_EQ(router.partition_slice_builds(), 1);
}

TEST(PartitionSliceTest, HashOwnershipPinsToModuloShardMap) {
  // The serving stack routes seeds by ModuloShardMap and partitions
  // nodes by GraphPartition's kHash OwnerOf; kPartitionedSubgraph relies
  // on the two agreeing for every node and shard count. Pin it.
  const ModuloShardMap shard_map;
  Rng rng(11);
  auto graph = ErdosRenyi(257, 1000, &rng);
  ASSERT_TRUE(graph.ok());
  for (size_t shards : {1u, 2u, 3u, 4u, 7u, 8u, 16u}) {
    auto partition = GraphPartition::Build(
        *graph, {.scheme = PartitionScheme::kHash,
                 .num_shards = static_cast<size_t>(shards)});
    ASSERT_TRUE(partition.ok());
    for (NodeId v = 0; v < graph->num_nodes(); ++v) {
      ASSERT_EQ(partition->OwnerOf(v), shard_map.OwnerOf(v, shards))
          << "node " << v << " shards " << shards;
    }
  }
}

}  // namespace
}  // namespace d2pr
