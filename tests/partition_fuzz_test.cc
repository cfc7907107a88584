// Seeded randomized property tests for edge-partitioned serving: over
// 50+ random graphs (power-law preferential attachment and bipartite
// member projections, weighted and unweighted) and random request mixes
// (uniform/personalized teleports, mixed p/alpha/beta, all dangling
// policies, power and Gauss-Seidel), the partitioned-subgraph router and
// the block solvers must reproduce the single-engine reference: power
// bit-identically, Gauss-Seidel within 1e-9 — with total probability
// mass 1 and top-k ranking agreement on every response. The
// solver-level sweep feeds the block solver from both slice builders
// (the matrix permutation and the matrix-free kernel).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/block_solver.h"
#include "core/gauss_seidel.h"
#include "core/pagerank.h"
#include "core/teleport.h"
#include "core/transition_slices.h"
#include "datagen/bipartite_world.h"
#include "datagen/classic_generators.h"
#include "datagen/projection.h"
#include "graph/partition.h"
#include "linalg/vec_ops.h"
#include "serve/engine_router.h"
#include "stats/ranking.h"
#include "transition_test_util.h"

namespace d2pr {
namespace {

constexpr int kNumCases = 50;
constexpr int kRequestsPerCase = 6;
constexpr size_t kTopK = 10;
constexpr double kGsTolerance = 1e-9;
constexpr double kMassTolerance = 1e-9;

/// Alternates between a power-law (preferential attachment) graph and a
/// bipartite member-member projection; every fourth case is weighted.
Result<CsrGraph> FuzzGraph(int case_id) {
  const auto seed = static_cast<uint64_t>(case_id);
  if (case_id % 2 == 0) {
    Rng rng(4000 + seed);
    return BarabasiAlbert(
        static_cast<NodeId>(100 + (case_id * 17) % 140),
        2 + case_id % 3, &rng);
  }
  BipartiteWorldConfig config;
  config.num_members = static_cast<NodeId>(80 + (case_id * 11) % 70);
  config.num_venues = static_cast<NodeId>(25 + case_id % 25);
  config.venue_size_max = 12;
  config.seed = 5000 + seed;
  auto world = GenerateBipartiteWorld(config);
  if (!world.ok()) return world.status();
  ProjectionConfig projection;
  projection.weighted = case_id % 4 == 1;
  return ProjectMembers(*world, projection);
}

RankRequest RandomRequest(Rng& rng, const CsrGraph& graph) {
  RankRequest request;
  request.p = rng.Uniform(-1.5, 2.0);
  request.alpha = rng.Uniform(0.5, 0.9);
  request.beta = graph.weighted() ? rng.Uniform() : 0.0;
  request.method =
      rng.Bernoulli(0.5) ? SolverMethod::kPower : SolverMethod::kGaussSeidel;
  const double policy_draw = rng.Uniform();
  request.dangling = policy_draw < 0.6 ? DanglingPolicy::kTeleport
                     : policy_draw < 0.8 ? DanglingPolicy::kSelfLoop
                                         : DanglingPolicy::kRenormalize;
  if (request.method == SolverMethod::kGaussSeidel &&
      request.dangling == DanglingPolicy::kRenormalize) {
    // Block Gauss-Seidel rejects kRenormalize by contract (the
    // renormalized fixed point is sweep-order dependent; see
    // core/block_solver.h) — the rejection itself is covered by the
    // parity suite, so the fuzz mix keeps these requests solvable.
    request.dangling = DanglingPolicy::kTeleport;
  }
  request.tolerance = 1e-11;
  request.max_iterations = 5000;  // always converge: parity needs it
  if (rng.Bernoulli(0.5)) {
    const auto num_seeds = static_cast<size_t>(rng.UniformInt(1, 5));
    while (request.seeds.size() < num_seeds) {
      const auto seed = static_cast<NodeId>(
          rng.UniformInt(0, graph.num_nodes() - 1));
      if (std::find(request.seeds.begin(), request.seeds.end(), seed) ==
          request.seeds.end()) {
        request.seeds.push_back(seed);
      }
    }
  }
  return request;
}

/// Top-k agreement modulo near-ties: position j may differ only between
/// nodes whose reference scores are within tolerance of each other.
void ExpectTopKAgreement(const std::vector<double>& reference,
                         const std::vector<double>& routed) {
  const std::vector<NodeId> expected = TopK(reference, kTopK);
  const std::vector<NodeId> actual = TopK(routed, kTopK);
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

TEST(PartitionFuzzTest, RouterMatchesSingleEngineOnRandomMixes) {
  int power_responses = 0;
  int gs_responses = 0;
  int boundary_heavy_cases = 0;
  for (int case_id = 0; case_id < kNumCases; ++case_id) {
    SCOPED_TRACE("case " + std::to_string(case_id));
    auto graph = FuzzGraph(case_id);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ASSERT_GT(graph->num_nodes(), 0);

    Rng rng(11000 + static_cast<uint64_t>(case_id));
    std::vector<RankRequest> requests;
    for (int i = 0; i < kRequestsPerCase; ++i) {
      requests.push_back(RandomRequest(rng, *graph));
    }

    D2prEngine reference = D2prEngine::Borrowing(*graph);
    auto sequential = reference.RankBatch(requests);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

    const size_t num_shards = 1 + static_cast<size_t>(case_id % 5);
    const PartitionScheme scheme = case_id % 2 == 0
                                       ? PartitionScheme::kRange
                                       : PartitionScheme::kHash;
    EngineRouter router = EngineRouter::Borrowing(
        *graph, {.num_shards = num_shards,
                 .partition_scheme = scheme});
    if (router.partition().BoundaryFraction() > 0.25) ++boundary_heavy_cases;

    auto routed = router.RankBatch(requests);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_EQ(routed->size(), sequential->size());

    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      const RankResponse& expected = (*sequential)[i];
      const RankResponse& actual = (*routed)[i];
      ASSERT_TRUE(expected.converged);
      ASSERT_TRUE(actual.converged);
      EXPECT_TRUE(actual.served_partitioned);
      ASSERT_EQ(actual.scores.size(), expected.scores.size());

      // Mass conservation: every response is a probability distribution.
      EXPECT_NEAR(Sum(actual.scores), 1.0, kMassTolerance);

      if (requests[i].method == SolverMethod::kPower) {
        // Bit-identical: scores, iterations, residual.
        EXPECT_EQ(actual.scores, expected.scores);
        EXPECT_EQ(actual.iterations, expected.iterations);
        EXPECT_EQ(actual.residual, expected.residual);
        ++power_responses;
      } else {
        double max_diff = 0.0;
        for (size_t n = 0; n < actual.scores.size(); ++n) {
          max_diff = std::max(
              max_diff, std::abs(actual.scores[n] - expected.scores[n]));
        }
        EXPECT_LE(max_diff, kGsTolerance);
        ++gs_responses;
      }
      ExpectTopKAgreement(expected.scores, actual.scores);
    }
  }
  // The property is only meaningful if the mix exercised both solvers
  // heavily and the partitions actually cut the graphs.
  EXPECT_GT(power_responses, 80);
  EXPECT_GT(gs_responses, 80);
  EXPECT_GT(boundary_heavy_cases, 20);
}

TEST(PartitionFuzzTest, SolverLevelPowerBitParityOnRandomGraphs) {
  // Below the router: the block power solver against SolvePagerank
  // directly, cycling shard counts {1, 2, 4, 8} and both schemes over
  // the same seeded graph family.
  for (int case_id = 0; case_id < kNumCases; ++case_id) {
    SCOPED_TRACE("case " + std::to_string(case_id));
    auto graph = FuzzGraph(case_id);
    ASSERT_TRUE(graph.ok());

    Rng rng(17000 + static_cast<uint64_t>(case_id));
    TransitionConfig config;
    config.p = rng.Uniform(-1.5, 2.0);
    config.beta = graph->weighted() ? rng.Uniform() : 0.0;
    auto transition = TransitionMatrix::Build(*graph, config);
    ASSERT_TRUE(transition.ok());

    PagerankOptions options;
    options.alpha = rng.Uniform(0.5, 0.9);
    options.tolerance = 1e-11;
    options.max_iterations = 5000;

    const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
    auto reference = SolvePagerank(*graph, *transition, teleport, options);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(reference->converged);

    const size_t shards[] = {1, 2, 4, 8};
    const size_t num_shards = shards[case_id % 4];
    const PartitionScheme scheme = case_id % 2 == 0
                                       ? PartitionScheme::kHash
                                       : PartitionScheme::kRange;
    auto partition = GraphPartition::Build(
        *graph, {.scheme = scheme, .num_shards = num_shards});
    ASSERT_TRUE(partition.ok());

    // Both slice builders (sharing the matrix and the shard-by-shard
    // build) are bit-identical, so one solve per builder proves the
    // whole chain.
    auto from_matrix = BuildTransitionSlices(
        *graph, *partition,
        std::make_shared<const TransitionMatrix>(std::move(*transition)));
    ASSERT_TRUE(from_matrix.ok());
    auto local = BuildTransitionSlicesLocal(*graph, *partition, config);
    ASSERT_TRUE(local.ok());
    ExpectSameMatrix(*local->transition, *from_matrix->transition);
    for (const TransitionSlices* slices : {&*from_matrix, &*local}) {
      auto sliced =
          SolvePagerankPartitioned(*slices, *partition, teleport, options);
      ASSERT_TRUE(sliced.ok());
      EXPECT_EQ(sliced->scores, reference->scores);
      EXPECT_EQ(sliced->iterations, reference->iterations);
      EXPECT_EQ(sliced->residual, reference->residual);
    }
  }
}

}  // namespace
}  // namespace d2pr
