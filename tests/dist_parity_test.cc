// Distributed-vs-in-process parity: the DistributedCoordinator driving
// an in-process shard fleet must reproduce the reference block solvers
// exactly — power bitwise (scores, iteration count, final residual)
// against SolvePagerankPartitioned, block Gauss-Seidel within 1e-9 of
// SolveGaussSeidelPartitioned — across both partition schemes, shard
// counts {1, 2, 4, 8}, every dangling policy, and a 25-graph seeded fuzz
// over the same graph family partition_fuzz_test.cc proves the
// in-process solvers on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/block_solver.h"
#include "core/teleport.h"
#include "core/transition_slices.h"
#include "dist/coordinator.h"
#include "dist_test_util.h"
#include "graph/partition.h"

namespace d2pr {
namespace {

constexpr double kGsTolerance = 1e-9;

Result<PagerankResult> ReferenceSolve(const CsrGraph& graph,
                                      PartitionScheme scheme,
                                      size_t num_shards, SolverMethod method,
                                      const TransitionConfig& config,
                                      const std::vector<double>& teleport,
                                      const PagerankOptions& options) {
  auto partition = GraphPartition::Build(
      graph, {.scheme = scheme, .num_shards = num_shards,
              .build_out_csr = false});
  if (!partition.ok()) return partition.status();
  auto slices = BuildTransitionSlicesLocal(graph, *partition, config);
  if (!slices.ok()) return slices.status();
  return method == SolverMethod::kPower
             ? SolvePagerankPartitioned(*slices, *partition, teleport,
                                        options)
             : SolveGaussSeidelPartitioned(*slices, *partition, teleport,
                                           options);
}

void ExpectBitwiseEqual(const PagerankResult& got,
                        const PagerankResult& want) {
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.residual, want.residual);
  EXPECT_EQ(got.converged, want.converged);
}

void ExpectWithin(const PagerankResult& got, const PagerankResult& want,
                  double tolerance) {
  ASSERT_EQ(got.scores.size(), want.scores.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < got.scores.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(got.scores[i] - want.scores[i]));
  }
  EXPECT_LE(max_diff, tolerance);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

TEST(DistParityTest, PowerBitwiseAcrossSchemesShardsAndPolicies) {
  Rng rng(42);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());

  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (size_t shards : {1, 2, 4, 8}) {
      for (DanglingPolicy dangling :
           {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
            DanglingPolicy::kRenormalize}) {
        SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                     std::to_string(shards) + " shards, dangling " +
                     std::to_string(static_cast<int>(dangling)));
        PagerankOptions options;
        options.alpha = 0.85;
        options.tolerance = 1e-11;
        options.max_iterations = 2000;
        options.dangling = dangling;

        DistFleet fleet = MakeFleet(*graph, shards, scheme);
        DistributedCoordinator coordinator(
            fleet.raw, MakeCoordinatorOptions(*graph, scheme));
        ASSERT_TRUE(coordinator.Handshake().ok());
        auto distributed =
            coordinator.Solve(SolverMethod::kPower, teleport, options);
        ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
        ASSERT_TRUE(distributed->converged);

        auto reference =
            ReferenceSolve(*graph, scheme, shards, SolverMethod::kPower, {},
                           teleport, options);
        ASSERT_TRUE(reference.ok());
        ExpectBitwiseEqual(*distributed, *reference);
      }
    }
  }
}

TEST(DistParityTest, GaussSeidelWithinToleranceAcrossSchemesAndShards) {
  Rng rng(43);
  auto graph = BarabasiAlbert(250, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());

  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (size_t shards : {1, 2, 4, 8}) {
      for (DanglingPolicy dangling :
           {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop}) {
        SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                     std::to_string(shards) + " shards, dangling " +
                     std::to_string(static_cast<int>(dangling)));
        PagerankOptions options;
        options.alpha = 0.85;
        options.tolerance = 1e-11;
        options.max_iterations = 2000;
        options.dangling = dangling;

        DistFleet fleet = MakeFleet(*graph, shards, scheme);
        DistributedCoordinator coordinator(
            fleet.raw, MakeCoordinatorOptions(*graph, scheme));
        ASSERT_TRUE(coordinator.Handshake().ok());
        auto distributed =
            coordinator.Solve(SolverMethod::kGaussSeidel, teleport, options);
        ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
        ASSERT_TRUE(distributed->converged);

        auto reference = ReferenceSolve(*graph, scheme, shards,
                                        SolverMethod::kGaussSeidel, {},
                                        teleport, options);
        ASSERT_TRUE(reference.ok());
        ExpectWithin(*distributed, *reference, kGsTolerance);
      }
    }
  }
}

TEST(DistParityTest, GaussSeidelRejectsRenormalizeExactlyAsInProcess) {
  Rng rng(44);
  auto graph = BarabasiAlbert(100, 2, &rng);
  ASSERT_TRUE(graph.ok());
  DistFleet fleet = MakeFleet(*graph, 2);
  DistributedCoordinator coordinator(fleet.raw,
                                     MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(coordinator.Handshake().ok());

  PagerankOptions options;
  options.dangling = DanglingPolicy::kRenormalize;
  auto result = coordinator.Solve(SolverMethod::kGaussSeidel,
                                  UniformTeleport(graph->num_nodes()),
                                  options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(),
            ValidateBlockGaussSeidelPolicy(DanglingPolicy::kRenormalize)
                .code());
}

TEST(DistParityTest, CoordinatorRejectsNonFiniteTeleport) {
  Rng rng(45);
  auto graph = BarabasiAlbert(100, 2, &rng);
  ASSERT_TRUE(graph.ok());
  DistFleet fleet = MakeFleet(*graph, 2);
  DistributedCoordinator coordinator(fleet.raw,
                                     MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(coordinator.Handshake().ok());
  std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  teleport[7] = std::nan("");
  auto result = coordinator.Solve(SolverMethod::kPower, teleport, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("finite"), std::string::npos);
}

TEST(DistParityTest, SeededFuzzMatchesBlockSolversOnRandomGraphs) {
  // 25 graphs from the partition fuzz family, cycling shard counts
  // {1, 2, 4, 8}, both schemes, both methods, random transition configs
  // and non-uniform teleports.
  int power_cases = 0;
  int gs_cases = 0;
  for (int case_id = 0; case_id < 25; ++case_id) {
    SCOPED_TRACE("case " + std::to_string(case_id));
    auto graph = DistFuzzGraph(case_id);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();

    Rng rng(21000 + static_cast<uint64_t>(case_id));
    TransitionConfig config;
    config.p = rng.Uniform(-1.5, 2.0);
    config.beta = graph->weighted() ? rng.Uniform() : 0.0;

    PagerankOptions options;
    options.alpha = rng.Uniform(0.5, 0.9);
    options.tolerance = 1e-11;
    options.max_iterations = 5000;
    const double policy_draw = rng.Uniform();
    options.dangling = policy_draw < 0.6 ? DanglingPolicy::kTeleport
                       : policy_draw < 0.8 ? DanglingPolicy::kSelfLoop
                                           : DanglingPolicy::kRenormalize;
    const SolverMethod method =
        rng.Bernoulli(0.5) ? SolverMethod::kPower : SolverMethod::kGaussSeidel;
    if (method == SolverMethod::kGaussSeidel &&
        options.dangling == DanglingPolicy::kRenormalize) {
      options.dangling = DanglingPolicy::kTeleport;
    }

    // Every fourth case personalizes the teleport vector.
    std::vector<double> teleport = UniformTeleport(graph->num_nodes());
    if (case_id % 4 == 3) {
      double mass = 0.0;
      for (double& t : teleport) {
        t = rng.Uniform(0.1, 1.0);
        mass += t;
      }
      for (double& t : teleport) t /= mass;
    }

    const size_t shard_counts[] = {1, 2, 4, 8};
    const size_t shards = shard_counts[case_id % 4];
    const PartitionScheme scheme = case_id % 2 == 0
                                       ? PartitionScheme::kHash
                                       : PartitionScheme::kRange;

    DistFleet fleet = MakeFleet(*graph, shards, scheme, config);
    DistributedCoordinator coordinator(
        fleet.raw, MakeCoordinatorOptions(*graph, scheme, config));
    ASSERT_TRUE(coordinator.Handshake().ok());
    auto distributed = coordinator.Solve(method, teleport, options);
    ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
    ASSERT_TRUE(distributed->converged);

    auto reference = ReferenceSolve(*graph, scheme, shards, method, config,
                                    teleport, options);
    ASSERT_TRUE(reference.ok());
    if (method == SolverMethod::kPower) {
      ExpectBitwiseEqual(*distributed, *reference);
      ++power_cases;
    } else {
      ExpectWithin(*distributed, *reference, kGsTolerance);
      ++gs_cases;
    }
  }
  // The sweep is only meaningful if both solvers recur.
  EXPECT_GE(power_cases, 5);
  EXPECT_GE(gs_cases, 5);
}

TEST(DistParityTest, BackToBackSolvesOverOneFleetStayBitwise) {
  // One handshake, three solves with different options over the same
  // connections — per-solve state must fully reset between solves.
  Rng rng(45);
  auto graph = BarabasiAlbert(200, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());

  DistFleet fleet = MakeFleet(*graph, 4);
  DistributedCoordinator coordinator(fleet.raw,
                                     MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(coordinator.Handshake().ok());

  for (double alpha : {0.7, 0.85, 0.9}) {
    SCOPED_TRACE("alpha " + std::to_string(alpha));
    PagerankOptions options;
    options.alpha = alpha;
    options.tolerance = 1e-11;
    options.max_iterations = 2000;
    auto distributed =
        coordinator.Solve(SolverMethod::kPower, teleport, options);
    ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
    auto reference = ReferenceSolve(*graph, PartitionScheme::kRange, 4,
                                    SolverMethod::kPower, {}, teleport,
                                    options);
    ASSERT_TRUE(reference.ok());
    ExpectBitwiseEqual(*distributed, *reference);
  }
}

}  // namespace
}  // namespace d2pr
