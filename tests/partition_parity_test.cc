// Partition-parity proof: block solves over edge-partitioned graphs must
// reproduce the single-graph reference solvers.
//
// The contract (see core/block_solver.h):
//   * block power iteration is BIT-IDENTICAL to SolvePagerank — scores,
//     iteration counts, and residuals — for every partition scheme and
//     shard count, every dangling policy, uniform and personalized
//     teleports, weighted and unweighted graphs;
//   * block Gauss-Seidel (Gauss-Seidel within a shard, Jacobi across
//     shards) agrees with SolvePagerankGaussSeidel within 1e-9 at
//     tolerance 1e-11.
// The same parity is then asserted one layer up, through EngineRouter
// against a whole-graph D2prEngine, where the
// serving surface (validation, seeded teleports, diagnostics) must also
// behave identically.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <memory>
#include <vector>

#include "api/engine.h"
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

/// `transition` sliced through `partition` — the block solvers' input.
TransitionSlices Sliced(const CsrGraph& graph, const GraphPartition& partition,
                        const TransitionMatrix& transition) {
  auto slices = BuildTransitionSlices(
      graph, partition, std::make_shared<const TransitionMatrix>(transition));
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
  for (const CsrGraph* graph : {&unweighted, &weighted}) {
    for (double p : {0.0, 0.7, -0.5}) {
      TransitionConfig config;
      config.p = p;
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
                  Sliced(*graph, *partition, *transition), *partition,
                  *teleport, options);
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
          auto partition = GraphPartition::Build(
              *graph, {.scheme = scheme, .num_shards = shards});
          ASSERT_TRUE(partition.ok());
          auto block = SolveGaussSeidelPartitioned(
              Sliced(*graph, *partition, *transition), *partition, *teleport,
              options);
          ASSERT_TRUE(block.ok());
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
  // With one shard there is no frozen remote data, yet the block sweep is
  // still not the reference sweep order's equal only for multi-shard
  // runs; for one shard the in-shard Gauss-Seidel order IS the global
  // order, so the paths coincide exactly.
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
  auto partition = GraphPartition::Build(graph, {.num_shards = 1});
  ASSERT_TRUE(partition.ok());
  auto block = SolveGaussSeidelPartitioned(
      Sliced(graph, *partition, *transition), *partition, teleport, options);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->scores, reference->scores);
  EXPECT_EQ(block->iterations, reference->iterations);
}

TEST(PartitionParityTest, BlockSolversValidateLikeTheReference) {
  const CsrGraph graph = UnweightedGraph();
  auto transition = TransitionMatrix::Build(graph, {});
  ASSERT_TRUE(transition.ok());
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  const TransitionSlices slices = Sliced(graph, *partition, *transition);

  PagerankOptions bad_alpha;
  bad_alpha.alpha = 1.0;
  EXPECT_EQ(SolvePagerankPartitioned(slices, *partition, teleport, bad_alpha)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  PagerankOptions bad_tolerance;
  bad_tolerance.tolerance = 0.0;
  EXPECT_EQ(SolveGaussSeidelPartitioned(slices, *partition, teleport,
                                        bad_tolerance)
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
  auto transition = TransitionMatrix::Build(graph, {});
  ASSERT_TRUE(transition.ok());
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  teleport[1] = std::nan("");
  auto solved = SolvePagerankPartitioned(
      Sliced(graph, *partition, *transition), *partition, teleport, {});
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solved.status().message().find("finite"), std::string::npos);
}

TEST(PartitionParityTest, EmptyGraphSolvesTrivially) {
  auto transition = TransitionMatrix::Build(CsrGraph(), {});
  ASSERT_TRUE(transition.ok());
  auto partition = GraphPartition::Build(CsrGraph(), {.num_shards = 4});
  ASSERT_TRUE(partition.ok());
  auto solved =
      SolvePagerankPartitioned(Sliced(CsrGraph(), *partition, *transition),
                               *partition, {}, PagerankOptions{});
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved->converged);
  EXPECT_TRUE(solved->scores.empty());
}

// ---------------------------------------------------------------------
// Router-level parity: the partitioned-subgraph serving mode.
// ---------------------------------------------------------------------

std::vector<RankRequest> ServingMix(const CsrGraph& graph) {
  std::vector<RankRequest> requests;
  for (SolverMethod method :
       {SolverMethod::kPower, SolverMethod::kGaussSeidel}) {
    RankRequest uniform;
    uniform.p = 0.8;
    uniform.method = method;
    uniform.tolerance = 1e-11;
    uniform.max_iterations = 5000;
    requests.push_back(uniform);

    RankRequest personalized = uniform;
    personalized.p = -0.4;
    personalized.alpha = 0.7;
    personalized.seeds = {0, graph.num_nodes() / 2,
                          static_cast<NodeId>(graph.num_nodes() - 1)};
    requests.push_back(personalized);

    if (graph.weighted()) {
      RankRequest blended = uniform;
      blended.beta = 0.4;
      requests.push_back(blended);
    }
  }
  // Repeat the first request: its transition must come back as a cache
  // hit, matching the single-engine reference's diagnostic.
  requests.push_back(requests.front());
  return requests;
}

TEST(PartitionParityTest, RouterMatchesSingleEngineReference) {
  const CsrGraph unweighted = UnweightedGraph();
  const CsrGraph weighted = WeightedDirectedGraph();
  for (const CsrGraph* graph : {&unweighted, &weighted}) {
    const std::vector<RankRequest> requests = ServingMix(*graph);
    D2prEngine reference = D2prEngine::Borrowing(*graph);
    auto sequential = reference.RankBatch(requests);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

    for (PartitionScheme scheme : kSchemes) {
      for (size_t shards : kShardCounts) {
        SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x" +
                     std::to_string(shards));
        EngineRouter router = EngineRouter::Borrowing(
            *graph, {.num_shards = shards,
                     .partition_scheme = scheme});
        EXPECT_EQ(router.num_shards(), shards);
        EXPECT_EQ(router.partition().scheme(), scheme);

        auto routed = router.RankBatch(requests);
        ASSERT_TRUE(routed.ok()) << routed.status().ToString();
        ASSERT_EQ(routed->size(), sequential->size());
        for (size_t i = 0; i < requests.size(); ++i) {
          SCOPED_TRACE("request " + std::to_string(i));
          const RankResponse& expected = (*sequential)[i];
          const RankResponse& actual = (*routed)[i];
          EXPECT_TRUE(actual.served_partitioned);
          EXPECT_FALSE(expected.served_partitioned);
          EXPECT_EQ(actual.converged, expected.converged);
          // One shared transition cache serves the block solves, so the
          // hit pattern matches the sequential reference exactly.
          EXPECT_EQ(actual.transition_cache_hit,
                    expected.transition_cache_hit);
          if (requests[i].method == SolverMethod::kPower) {
            EXPECT_EQ(actual.scores, expected.scores);
            EXPECT_EQ(actual.iterations, expected.iterations);
            EXPECT_EQ(actual.residual, expected.residual);
          } else {
            EXPECT_LE(MaxAbsDiff(actual.scores, expected.scores),
                      kGsTolerance);
          }
        }
      }
    }
  }
}

TEST(PartitionParityTest, RouterAsyncMatchesSyncPath) {
  // RankAsync solves inline on a pool worker (no nested fan-out); the
  // result must still be bit-identical to the pooled sync path.
  const CsrGraph graph = UnweightedGraph();
  EngineRouter router = EngineRouter::Borrowing(
      graph, {.num_shards = 4});
  RankRequest request;
  request.p = 0.5;
  request.tolerance = 1e-11;
  request.max_iterations = 5000;
  auto sync = router.Rank(request);
  ASSERT_TRUE(sync.ok());
  auto future = router.RankAsync(request);
  auto async = future.get();
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async->scores, sync->scores);
  EXPECT_EQ(async->iterations, sync->iterations);
  EXPECT_TRUE(async->served_partitioned);
}

TEST(PartitionParityTest, GaussSeidelRenormalizeIsRejectedNotApproximated) {
  // The renormalized Gauss-Seidel fixed point depends on the sweep order
  // once dangling mass is dropped, so a block sweep cannot reproduce the
  // single-graph reference; both the solver and the serving mode must
  // fail loudly rather than serve an O(1e-3)-off solution.
  const CsrGraph graph = WeightedDirectedGraph();  // has dangling nodes
  auto transition = TransitionMatrix::Build(graph, {});
  ASSERT_TRUE(transition.ok());
  auto partition = GraphPartition::Build(graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  PagerankOptions options;
  options.dangling = DanglingPolicy::kRenormalize;
  auto solved = SolveGaussSeidelPartitioned(
      Sliced(graph, *partition, *transition), *partition,
      UniformTeleport(graph.num_nodes()), options);
  EXPECT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);

  EngineRouter router = EngineRouter::Borrowing(
      graph, {.num_shards = 2});
  RankRequest request;
  request.method = SolverMethod::kGaussSeidel;
  request.dangling = DanglingPolicy::kRenormalize;
  auto response = router.Rank(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  // No transition build was paid for the rejected request.
  EXPECT_EQ(router.transition_resolver().builds(), 0);

  // Power iteration under kRenormalize stays fully (bitwise) supported.
  request.method = SolverMethod::kPower;
  auto power = router.Rank(request);
  ASSERT_TRUE(power.ok());
  D2prEngine engine = D2prEngine::Borrowing(graph);
  auto reference = engine.Rank(request);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(power->scores, reference->scores);
}

TEST(PartitionParityTest, RouterRejectsForwardPushCleanly) {
  const CsrGraph graph = UnweightedGraph();
  EngineRouter router = EngineRouter::Borrowing(
      graph, {.num_shards = 2});
  RankRequest request;
  request.method = SolverMethod::kForwardPush;
  request.seeds = {3};
  auto response = router.Rank(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartitionParityTest, RouterValidatesLikeTheEngine) {
  const CsrGraph graph = UnweightedGraph();
  D2prEngine engine = D2prEngine::Borrowing(graph);
  EngineRouter router = EngineRouter::Borrowing(
      graph, {.num_shards = 2});

  std::vector<RankRequest> bad_requests;
  RankRequest bad_alpha;
  bad_alpha.alpha = 1.5;
  bad_requests.push_back(bad_alpha);
  RankRequest bad_beta;
  bad_beta.beta = 2.0;
  bad_requests.push_back(bad_beta);
  RankRequest bad_seed;
  bad_seed.seeds = {graph.num_nodes() + 5};
  bad_requests.push_back(bad_seed);
  RankRequest bad_tolerance;
  bad_tolerance.tolerance = -1.0;
  bad_requests.push_back(bad_tolerance);

  for (size_t i = 0; i < bad_requests.size(); ++i) {
    SCOPED_TRACE("bad request " + std::to_string(i));
    auto from_engine = engine.Rank(bad_requests[i]);
    auto from_router = router.Rank(bad_requests[i]);
    ASSERT_FALSE(from_engine.ok());
    ASSERT_FALSE(from_router.ok());
    EXPECT_EQ(from_router.status().code(), from_engine.status().code());
    EXPECT_EQ(from_router.status().ToString(),
              from_engine.status().ToString());
  }
}

TEST(PartitionParityTest, RouterWarmTagsSolveColdButSucceed) {
  const CsrGraph graph = UnweightedGraph();
  EngineRouter router = EngineRouter::Borrowing(
      graph, {.num_shards = 2});
  RankRequest tagged;
  tagged.p = 0.3;
  tagged.warm_start_tag = "sweep";
  auto first = router.Rank(tagged);
  ASSERT_TRUE(first.ok());
  auto second = router.Rank(tagged);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->warm_start_hit);
  // Cold both times: identical solves.
  EXPECT_EQ(second->scores, first->scores);
  EXPECT_EQ(second->iterations, first->iterations);
}

TEST(PartitionParityTest, RouterHonorsPersistentTransitionStore) {
  // --cache-dir composes with partitioned serving: the first router
  // builds and spills the shared matrix; a restarted router maps it back
  // (zero builds) with bit-identical scores.
  const std::string dir = testing::TempDir() + "/d2pr_partition_store";
  std::filesystem::remove_all(dir);
  const CsrGraph graph = UnweightedGraph();
  RankRequest request;
  request.p = 0.9;
  request.tolerance = 1e-11;
  request.max_iterations = 5000;

  RouterOptions options;
  options.num_shards = 4;
  options.engine_options.cache_dir = dir;

  std::vector<double> first_scores;
  {
    EngineRouter router = EngineRouter::Borrowing(graph, options);
    auto response = router.Rank(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->transition_store_hit);
    EXPECT_EQ(router.transition_resolver().builds(), 1);
    EXPECT_EQ(router.transition_resolver().store_saves(), 1);
    first_scores = response->scores;
  }
  {
    EngineRouter restarted = EngineRouter::Borrowing(graph, options);
    auto response = restarted.Rank(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->transition_store_hit);
    EXPECT_EQ(restarted.transition_resolver().builds(), 0);
    EXPECT_EQ(restarted.transition_resolver().store_loads(), 1);
    EXPECT_EQ(response->scores, first_scores);
  }
  std::filesystem::remove_all(dir);
}

TEST(PartitionParityTest, RouterTransitionAccountingIsShared) {
  const CsrGraph graph = UnweightedGraph();
  EngineRouter router = EngineRouter::Borrowing(
      graph, {.num_shards = 4});
  RankRequest request;
  request.p = 1.1;
  ASSERT_TRUE(router.Rank(request).ok());
  ASSERT_TRUE(router.Rank(request).ok());
  // One build for the key, shared by all four shards' sweeps; the second
  // request is a pure cache hit.
  EXPECT_EQ(router.transition_resolver().builds(), 1);
  EXPECT_EQ(router.transition_resolver().cache_lookup_hits(), 1);
}

}  // namespace
}  // namespace d2pr
