// The pre-cut fleet end to end, in process: workers loaded from cut
// files (ShardWorker::CreateFromCutFile) driven by a
// DistributedCoordinator must solve bitwise identically to the
// whole-graph reference — while NEVER building a whole CsrGraph or a
// TransitionMatrix (pinned by build counters), holding ~1/N of the
// graph bytes per worker, and getting the O(|V|) metric vector from the
// coordinator's solve-begin broadcast exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/block_solver.h"
#include "core/teleport.h"
#include "core/transition.h"
#include "core/transition_slices.h"
#include "dist/coordinator.h"
#include "dist_test_util.h"
#include "graph/graph_builder.h"
#include "graph/shard_cut.h"

namespace d2pr {
namespace {

constexpr double kGsTolerance = 1e-9;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/d2pr_distcut_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A fleet whose every worker was loaded from a cut file written to
/// `dir` — no worker ever sees the graph.
DistFleet MakeCutFleet(const CsrGraph& graph, const std::string& dir,
                       size_t num_shards, PartitionScheme scheme,
                       const TransitionConfig& config = {}) {
  auto partition = GraphPartition::Build(
      graph,
      {.scheme = scheme, .num_shards = num_shards, .build_out_csr = true});
  D2PR_CHECK(partition.ok()) << partition.status().ToString();
  DistFleet fleet;
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string path =
        dir + "/" + ShardCutFileName(GraphFingerprint(graph), scheme,
                                     num_shards, s);
    const Status saved = SaveShardCut(graph, *partition, s, path);
    D2PR_CHECK(saved.ok()) << saved.ToString();
    AddWorker(fleet, ShardWorker::CreateFromCutFile(path, config));
  }
  return fleet;
}

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

TEST(DistCutTest, PowerBitwiseFromCutFilesAcrossSchemesAndShardCounts) {
  Rng rng(91);
  auto graph = BarabasiAlbert(260, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  const std::string dir = FreshDir("parity");

  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-11;
  options.max_iterations = 2000;

  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (size_t shards : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                   std::to_string(shards) + " shards");
      DistFleet fleet = MakeCutFleet(*graph, dir, shards, scheme);
      DistributedCoordinator coordinator(
          fleet.raw, MakeCoordinatorOptions(*graph, scheme));
      ASSERT_TRUE(coordinator.Handshake().ok());
      auto distributed =
          coordinator.Solve(SolverMethod::kPower, teleport, options);
      ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
      ASSERT_TRUE(distributed->converged);

      auto reference = ReferenceSolve(*graph, scheme, shards,
                                      SolverMethod::kPower, {}, teleport,
                                      options);
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(distributed->scores, reference->scores);
      EXPECT_EQ(distributed->iterations, reference->iterations);
      EXPECT_EQ(distributed->residual, reference->residual);
    }
  }
}

TEST(DistCutTest, GaussSeidelFromCutFilesWithinTolerance) {
  Rng rng(92);
  auto graph = BarabasiAlbert(220, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  const std::string dir = FreshDir("gs");

  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-11;
  options.max_iterations = 2000;

  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (size_t shards : {2, 4}) {
      SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                   std::to_string(shards) + " shards");
      DistFleet fleet = MakeCutFleet(*graph, dir, shards, scheme);
      DistributedCoordinator coordinator(
          fleet.raw, MakeCoordinatorOptions(*graph, scheme));
      ASSERT_TRUE(coordinator.Handshake().ok());
      auto distributed =
          coordinator.Solve(SolverMethod::kGaussSeidel, teleport, options);
      ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();

      auto reference = ReferenceSolve(*graph, scheme, shards,
                                      SolverMethod::kGaussSeidel, {},
                                      teleport, options);
      ASSERT_TRUE(reference.ok());
      ASSERT_EQ(distributed->scores.size(), reference->scores.size());
      double max_diff = 0.0;
      for (size_t i = 0; i < distributed->scores.size(); ++i) {
        max_diff = std::max(max_diff, std::abs(distributed->scores[i] -
                                               reference->scores[i]));
      }
      EXPECT_LE(max_diff, kGsTolerance);
      EXPECT_EQ(distributed->iterations, reference->iterations);
    }
  }
}

TEST(DistCutTest, WeightedCutFleetMatchesReferenceBitwise) {
  // A weighted graph exercises the cut's three weight families and the
  // out-strength metric broadcast.
  auto graph = DistFuzzGraph(5);  // bipartite projection, weighted
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->weighted());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  const std::string dir = FreshDir("weighted");
  const TransitionConfig config{.p = 0.5, .beta = 0.5};

  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-11;
  options.max_iterations = 2000;

  DistFleet fleet =
      MakeCutFleet(*graph, dir, 4, PartitionScheme::kHash, config);
  DistributedCoordinator coordinator(
      fleet.raw,
      MakeCoordinatorOptions(*graph, PartitionScheme::kHash, config));
  ASSERT_TRUE(coordinator.Handshake().ok());
  auto distributed =
      coordinator.Solve(SolverMethod::kPower, teleport, options);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();

  auto reference = ReferenceSolve(*graph, PartitionScheme::kHash, 4,
                                  SolverMethod::kPower, config, teleport,
                                  options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(distributed->scores, reference->scores);
  EXPECT_EQ(distributed->iterations, reference->iterations);
}

TEST(DistCutTest, CutWorkersNeverBuildAWholeGraphOrTransitionMatrix) {
  Rng rng(93);
  auto graph = BarabasiAlbert(200, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  const std::string dir = FreshDir("nobuild");

  // Cuts are written (and the reference partition built) BEFORE the
  // counters are sampled: only the workers' own behavior is measured.
  auto partition = GraphPartition::Build(
      *graph, {.scheme = PartitionScheme::kRange, .num_shards = 4,
               .build_out_csr = true});
  ASSERT_TRUE(partition.ok());
  std::vector<std::string> paths;
  for (size_t s = 0; s < 4; ++s) {
    paths.push_back(dir + "/" +
                    ShardCutFileName(GraphFingerprint(*graph),
                                     PartitionScheme::kRange, 4, s));
    ASSERT_TRUE(SaveShardCut(*graph, *partition, s, paths.back()).ok());
  }
  CoordinatorOptions coordinator_options =
      MakeCoordinatorOptions(*graph, PartitionScheme::kRange);

  const uint64_t graphs_before = GraphBuilder::BuildCount();
  const uint64_t matrices_before = TransitionMatrix::BuildCount();

  DistFleet fleet;
  for (const std::string& path : paths) {
    AddWorker(fleet, ShardWorker::CreateFromCutFile(path, {}));
  }
  DistributedCoordinator coordinator(fleet.raw, coordinator_options);
  ASSERT_TRUE(coordinator.Handshake().ok());
  PagerankOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 500;
  auto result = coordinator.Solve(SolverMethod::kPower, teleport, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->converged);

  EXPECT_EQ(GraphBuilder::BuildCount(), graphs_before)
      << "a cut-loaded worker constructed a whole CsrGraph";
  EXPECT_EQ(TransitionMatrix::BuildCount(), matrices_before)
      << "a cut-loaded worker materialized a TransitionMatrix";
}

TEST(DistCutTest, ResidentGraphBytesShrinkRoughlyOneOverN) {
  Rng rng(94);
  auto graph = BarabasiAlbert(2000, 8, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  const std::string dir = FreshDir("resident");
  PagerankOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 500;

  // The baseline: the whole graph's CSR bytes (offsets + targets).
  const int64_t csr_bytes =
      static_cast<int64_t>((graph->num_nodes() + 1) * sizeof(EdgeIndex)) +
      graph->num_arcs() * static_cast<int64_t>(sizeof(NodeId));

  int64_t max_resident_4 = 0;
  for (size_t shards : {4, 8}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    DistFleet fleet =
        MakeCutFleet(*graph, dir, shards, PartitionScheme::kHash);
    DistributedCoordinator coordinator(
        fleet.raw, MakeCoordinatorOptions(*graph, PartitionScheme::kHash));
    ASSERT_TRUE(coordinator.Handshake().ok());
    // The first solve builds the slices, after which the ghost rows and
    // weights of the cut are dropped — the steady-state footprint the
    // ~1/N claim is about.
    ASSERT_TRUE(
        coordinator.Solve(SolverMethod::kPower, teleport, options).ok());
    int64_t max_resident = 0;
    for (const auto& worker : fleet.workers) {
      max_resident = std::max(max_resident, worker->resident_graph_bytes());
    }
    // A worker keeps ~21 bytes per in-arc (source, arc index, interior
    // flag, sweep slot) against the CSR's 4 per arc, so a balanced fleet
    // holds ~5/N of the CSR bytes per worker. Hash partitioning
    // balances hubs, but not perfectly: assert 8/N — the point is the
    // scaling, every worker shrinking again from 4-way to 8-way.
    EXPECT_LT(max_resident, csr_bytes * 8 / static_cast<int64_t>(shards));
    if (shards == 4) max_resident_4 = max_resident;
    if (shards == 8) EXPECT_LT(max_resident, max_resident_4);
  }
}

TEST(DistCutTest, HandshakeFailsLoudWithoutTheMetricVector) {
  Rng rng(95);
  auto graph = BarabasiAlbert(150, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("nometric");
  DistFleet fleet = MakeCutFleet(*graph, dir, 2, PartitionScheme::kRange);

  // Missing entirely.
  {
    CoordinatorOptions options =
        MakeCoordinatorOptions(*graph, PartitionScheme::kRange);
    options.metric_values.clear();
    DistributedCoordinator coordinator(fleet.raw, options);
    const Status handshake = coordinator.Handshake();
    ASSERT_FALSE(handshake.ok());
    EXPECT_EQ(handshake.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(handshake.message().find("metric"), std::string::npos);
  }
  // Wrong size.
  {
    CoordinatorOptions options =
        MakeCoordinatorOptions(*graph, PartitionScheme::kRange);
    options.metric_values.assign(
        static_cast<size_t>(graph->num_nodes()) - 1, 1.0);
    DistributedCoordinator coordinator(fleet.raw, options);
    const Status handshake = coordinator.Handshake();
    ASSERT_FALSE(handshake.ok());
    EXPECT_EQ(handshake.code(), StatusCode::kFailedPrecondition);
  }
}

TEST(DistCutTest, MetricVectorIsBroadcastExactlyOncePerShard) {
  Rng rng(96);
  auto graph = BarabasiAlbert(150, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  const std::string dir = FreshDir("once");
  const size_t shards = 2;
  DistFleet fleet =
      MakeCutFleet(*graph, dir, shards, PartitionScheme::kRange);
  DistributedCoordinator coordinator(
      fleet.raw,
      MakeCoordinatorOptions(*graph, PartitionScheme::kRange));
  ASSERT_TRUE(coordinator.Handshake().ok());

  PagerankOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 500;
  ASSERT_TRUE(
      coordinator.Solve(SolverMethod::kPower, teleport, options).ok());
  const int64_t sent_after_first = coordinator.stats().metric_values_sent;
  EXPECT_EQ(sent_after_first,
            static_cast<int64_t>(graph->num_nodes()) *
                static_cast<int64_t>(shards));

  // The workers' slices are built now; the second solve ships nothing.
  ASSERT_TRUE(
      coordinator.Solve(SolverMethod::kPower, teleport, options).ok());
  EXPECT_EQ(coordinator.stats().metric_values_sent, sent_after_first);
}

TEST(DistCutTest, RejectedMetricVectorLeavesTheWorkerUnbuilt) {
  // A metric vector of the right size but with a value no degree can
  // take must be rejected before the slice builds, and must not poison
  // the worker: a later well-formed solve begin still builds the exact
  // slice.
  Rng rng(97);
  auto graph = BarabasiAlbert(120, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  const std::string dir = FreshDir("badmetric");
  DistFleet fleet = MakeCutFleet(*graph, dir, 2, PartitionScheme::kRange);
  PagerankOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 2000;

  for (double bad : {std::nan(""), -1.0, HUGE_VAL}) {
    SCOPED_TRACE("bad metric " + std::to_string(bad));
    CoordinatorOptions poisoned =
        MakeCoordinatorOptions(*graph, PartitionScheme::kRange);
    poisoned.metric_values[7] = bad;
    DistributedCoordinator coordinator(fleet.raw, poisoned);
    ASSERT_TRUE(coordinator.Handshake().ok());
    auto rejected = coordinator.Solve(SolverMethod::kPower, teleport, options);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }

  DistributedCoordinator coordinator(
      fleet.raw, MakeCoordinatorOptions(*graph, PartitionScheme::kRange));
  ASSERT_TRUE(coordinator.Handshake().ok());
  auto distributed =
      coordinator.Solve(SolverMethod::kPower, teleport, options);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  auto reference = ReferenceSolve(*graph, PartitionScheme::kRange, 2,
                                  SolverMethod::kPower, {}, teleport,
                                  options);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(distributed->scores.size(), reference->scores.size());
  EXPECT_EQ(std::memcmp(distributed->scores.data(), reference->scores.data(),
                        reference->scores.size() * sizeof(double)),
            0);
  EXPECT_EQ(distributed->iterations, reference->iterations);
}

TEST(DistCutTest, FingerprintMismatchRejectsAtHandshake) {
  Rng rng(98);
  auto graph = BarabasiAlbert(120, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("wronggraph");
  DistFleet fleet = MakeCutFleet(*graph, dir, 2, PartitionScheme::kRange);
  CoordinatorOptions options =
      MakeCoordinatorOptions(*graph, PartitionScheme::kRange);
  options.graph_fingerprint ^= 0x1;
  DistributedCoordinator coordinator(fleet.raw, options);
  const Status handshake = coordinator.Handshake();
  ASSERT_FALSE(handshake.ok());
  EXPECT_EQ(handshake.code(), StatusCode::kFailedPrecondition);
}

TEST(DistCutTest, SchemeMismatchRejectsAtHandshake) {
  Rng rng(99);
  auto graph = BarabasiAlbert(120, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("wrongscheme");
  // Workers cut under hash; coordinator handshakes range.
  DistFleet fleet = MakeCutFleet(*graph, dir, 2, PartitionScheme::kHash);
  CoordinatorOptions options =
      MakeCoordinatorOptions(*graph, PartitionScheme::kRange);
  DistributedCoordinator coordinator(fleet.raw, options);
  const Status handshake = coordinator.Handshake();
  ASSERT_FALSE(handshake.ok());
  EXPECT_EQ(handshake.code(), StatusCode::kFailedPrecondition);
}

TEST(DistCutTest, CutFleetSurvivesTransportFaults) {
  // The fault policy must hold for cut-loaded workers exactly as for
  // whole-graph ones: dropped replies retry into the idempotent cache,
  // and the solve still matches the reference bitwise.
  Rng rng(100);
  auto graph = BarabasiAlbert(150, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  const std::string dir = FreshDir("faults");
  DistFleet fleet = MakeCutFleet(*graph, dir, 2, PartitionScheme::kRange);

  FaultyChannel::Options faults;
  faults.drop_reply_every = 7;
  FaultyChannel flaky(*fleet.raw[0], faults);
  std::vector<ShardChannel*> channels = {&flaky, fleet.raw[1]};

  DistributedCoordinator coordinator(
      channels, MakeCoordinatorOptions(*graph, PartitionScheme::kRange));
  ASSERT_TRUE(coordinator.Handshake().ok());
  PagerankOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 2000;
  auto distributed =
      coordinator.Solve(SolverMethod::kPower, teleport, options);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  EXPECT_GT(coordinator.stats().retries, 0);

  auto reference = ReferenceSolve(*graph, PartitionScheme::kRange, 2,
                                  SolverMethod::kPower, {}, teleport,
                                  options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(distributed->scores, reference->scores);
}

}  // namespace
}  // namespace d2pr
