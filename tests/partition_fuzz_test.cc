// Seeded randomized property tests for the block solvers: over 50
// random graphs (power-law preferential attachment and bipartite member
// projections, weighted and unweighted), random p/alpha/beta, every
// dangling policy and uniform and seeded teleports, the block solvers
// must reproduce the whole-graph reference solvers: in-process block
// power bit-identically (its matrix-free slices bitwise the matrix's
// factors), block Gauss-Seidel on an in-process shard fleet within 1e-9
// with total probability mass 1 and top-k ranking agreement on every
// solve.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/block_solver.h"
#include "core/gauss_seidel.h"
#include "core/pagerank.h"
#include "core/teleport.h"
#include "core/transition_slices.h"
#include "dist_test_util.h"
#include "graph/partition.h"
#include "linalg/vec_ops.h"
#include "stats/ranking.h"
#include "transition_test_util.h"

namespace d2pr {
namespace {

constexpr int kNumCases = 50;
constexpr size_t kTopK = 10;
constexpr double kGsTolerance = 1e-9;
constexpr double kMassTolerance = 1e-9;

/// 1-5 distinct random nodes, the seeds of a personalized teleport.
std::vector<NodeId> RandomSeeds(Rng& rng, const CsrGraph& graph) {
  const auto num_seeds = static_cast<size_t>(rng.UniformInt(1, 5));
  std::vector<NodeId> seeds;
  while (seeds.size() < num_seeds) {
    const auto seed =
        static_cast<NodeId>(rng.UniformInt(0, graph.num_nodes() - 1));
    if (std::find(seeds.begin(), seeds.end(), seed) == seeds.end()) {
      seeds.push_back(seed);
    }
  }
  return seeds;
}

/// One random transition model and solver configuration per case, with
/// the uniform and a seeded teleport to solve it under.
struct RandomCase {
  TransitionConfig config;
  PagerankOptions options;
  std::vector<double> uniform;
  std::vector<double> seeded;
};

RandomCase MakeRandomCase(Rng& rng, const CsrGraph& graph) {
  RandomCase c;
  c.config.p = rng.Uniform(-1.5, 2.0);
  c.config.beta = graph.weighted() ? rng.Uniform() : 0.0;
  c.options.alpha = rng.Uniform(0.5, 0.9);
  c.options.tolerance = 1e-11;
  c.options.max_iterations = 5000;  // always converge: parity needs it
  c.uniform = UniformTeleport(graph.num_nodes());
  auto seeded = SeededTeleport(graph.num_nodes(), RandomSeeds(rng, graph));
  EXPECT_TRUE(seeded.ok()) << seeded.status().ToString();
  c.seeded = std::move(seeded).value();
  return c;
}

constexpr DanglingPolicy kPolicies[] = {DanglingPolicy::kTeleport,
                                        DanglingPolicy::kSelfLoop,
                                        DanglingPolicy::kRenormalize};

/// Top-k agreement modulo near-ties: position j may differ only between
/// nodes whose reference scores are within tolerance of each other.
void ExpectTopKAgreement(const std::vector<double>& reference,
                         const std::vector<double>& block) {
  const std::vector<NodeId> expected = TopK(reference, kTopK);
  const std::vector<NodeId> actual = TopK(block, kTopK);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    if (expected[j] == actual[j]) continue;
    const double score_gap =
        std::abs(reference[static_cast<size_t>(expected[j])] -
                 reference[static_cast<size_t>(actual[j])]);
    EXPECT_LE(score_gap, kGsTolerance)
        << "top-" << j << " disagrees beyond a near-tie: node "
        << expected[j] << " vs " << actual[j];
  }
}

TEST(PartitionFuzzTest, SolverLevelPowerBitParityOnRandomGraphs) {
  // The block power solver against SolvePagerank, cycling shard counts
  // {1, 2, 4, 8} and both schemes, under every dangling policy with the
  // uniform and a seeded teleport.
  int power_responses = 0;
  int boundary_heavy_cases = 0;
  for (int case_id = 0; case_id < kNumCases; ++case_id) {
    SCOPED_TRACE("case " + std::to_string(case_id));
    auto graph = DistFuzzGraph(case_id);
    ASSERT_TRUE(graph.ok());

    Rng rng(17000 + static_cast<uint64_t>(case_id));
    RandomCase random = MakeRandomCase(rng, *graph);
    auto transition = TransitionMatrix::Build(*graph, random.config);
    ASSERT_TRUE(transition.ok());

    const size_t shards[] = {1, 2, 4, 8};
    const size_t num_shards = shards[case_id % 4];
    const PartitionScheme scheme = case_id % 2 == 0
                                       ? PartitionScheme::kHash
                                       : PartitionScheme::kRange;
    auto partition = GraphPartition::Build(
        *graph, {.scheme = scheme, .num_shards = num_shards});
    ASSERT_TRUE(partition.ok());
    if (partition->BoundaryFraction() > 0.25) ++boundary_heavy_cases;

    // The shard-by-shard build recomputes the matrix's factors bit for
    // bit.
    auto local = BuildTransitionSlicesLocal(*graph, *partition, random.config);
    ASSERT_TRUE(local.ok());
    ExpectSameMatrix(*local->transition, *transition);

    for (const DanglingPolicy policy : kPolicies) {
      for (const std::vector<double>* teleport :
           {&random.uniform, &random.seeded}) {
        SCOPED_TRACE(StrCat("policy ", static_cast<int>(policy),
                            teleport == &random.uniform ? " uniform"
                                                        : " seeded"));
        PagerankOptions options = random.options;
        options.dangling = policy;
        auto reference =
            SolvePagerank(*graph, *transition, *teleport, options);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        ASSERT_TRUE(reference->converged);
        auto sliced =
            SolvePagerankPartitioned(*local, *partition, *teleport, options);
        ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
        ExpectSameBits(sliced->scores, reference->scores, "scores");
        EXPECT_EQ(sliced->iterations, reference->iterations);
        EXPECT_EQ(std::memcmp(&sliced->residual, &reference->residual,
                              sizeof(double)),
                  0);
        ++power_responses;
      }
    }
  }
  // The property is only meaningful if the partitions actually cut the
  // graphs.
  EXPECT_GT(power_responses, 80);
  EXPECT_GT(boundary_heavy_cases, 20);
}

TEST(PartitionFuzzTest, SolverLevelGaussSeidelOnRandomGraphs) {
  // Block Gauss-Seidel on an in-process shard fleet against
  // SolvePagerankGaussSeidel over the same graph family: within 1e-9 at
  // tolerance 1e-11, total mass 1 and top-k agreement on every solve,
  // kRenormalize rejected by the coordinator (its fixed point depends on
  // the sweep order; see core/block_solver.h).
  int gs_responses = 0;
  int renormalize_rejections = 0;
  int boundary_heavy_cases = 0;
  for (int case_id = 0; case_id < kNumCases; ++case_id) {
    SCOPED_TRACE("case " + std::to_string(case_id));
    auto graph = DistFuzzGraph(case_id);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ASSERT_GT(graph->num_nodes(), 0);

    Rng rng(11000 + static_cast<uint64_t>(case_id));
    RandomCase random = MakeRandomCase(rng, *graph);
    auto transition = TransitionMatrix::Build(*graph, random.config);
    ASSERT_TRUE(transition.ok());

    const size_t num_shards = 1 + static_cast<size_t>(case_id % 5);
    const PartitionScheme scheme = case_id % 2 == 0
                                       ? PartitionScheme::kRange
                                       : PartitionScheme::kHash;
    auto partition = GraphPartition::Build(
        *graph, {.scheme = scheme, .num_shards = num_shards});
    ASSERT_TRUE(partition.ok());
    if (partition->BoundaryFraction() > 0.25) ++boundary_heavy_cases;
    // The fleet cuts the same partition: same scheme, same shard count.
    DistFleet fleet = MakeFleet(*graph, num_shards, scheme, random.config);
    DistributedCoordinator coordinator(
        fleet.raw, MakeCoordinatorOptions(*graph, scheme, random.config));
    ASSERT_TRUE(coordinator.Handshake().ok());

    for (const DanglingPolicy policy : kPolicies) {
      for (const std::vector<double>* teleport :
           {&random.uniform, &random.seeded}) {
        SCOPED_TRACE(StrCat("policy ", static_cast<int>(policy),
                            teleport == &random.uniform ? " uniform"
                                                        : " seeded"));
        PagerankOptions options = random.options;
        options.dangling = policy;
        auto block =
            coordinator.Solve(SolverMethod::kGaussSeidel, *teleport, options);
        if (policy == DanglingPolicy::kRenormalize) {
          EXPECT_EQ(block.status().code(), StatusCode::kInvalidArgument);
          ++renormalize_rejections;
          continue;
        }
        ASSERT_TRUE(block.ok()) << block.status().ToString();
        auto reference =
            SolvePagerankGaussSeidel(*graph, *transition, *teleport, options);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        ASSERT_TRUE(reference->converged);
        ASSERT_TRUE(block->converged);
        ASSERT_EQ(block->scores.size(), reference->scores.size());

        // Mass conservation: every solve is a probability distribution.
        EXPECT_NEAR(Sum(block->scores), 1.0, kMassTolerance);
        double max_diff = 0.0;
        for (size_t n = 0; n < block->scores.size(); ++n) {
          max_diff = std::max(
              max_diff, std::abs(block->scores[n] - reference->scores[n]));
        }
        EXPECT_LE(max_diff, kGsTolerance);
        ExpectTopKAgreement(reference->scores, block->scores);
        ++gs_responses;
      }
    }
  }
  EXPECT_GT(gs_responses, 80);
  EXPECT_EQ(renormalize_rejections, 2 * kNumCases);
  EXPECT_GT(boundary_heavy_cases, 20);
}

}  // namespace
}  // namespace d2pr
