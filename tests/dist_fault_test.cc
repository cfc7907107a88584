// Fault-injection chaos for the distributed block solve: every injected
// transport fault — lost requests, lost replies, duplicated frames,
// truncated payloads, a shard dying mid-solve, a deadline that can never
// be met — must surface as a clean Status from Solve(). The coordinator
// never hangs (the in-process fleet has no real waits to hang on; the
// assertions are that every call RETURNS, with the right code) and never
// returns a partial vector (an error Result carries no scores at all).
// Recoverable faults (timeouts within the retry budget, duplicates) must
// not merely succeed: the result must stay bitwise identical to the
// in-process reference, proving the idempotent resend path replays — not
// re-executes — sweeps.

#include <gtest/gtest.h>

#include <memory>
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

struct FaultFixture {
  Result<CsrGraph> graph = Status::Internal("unbuilt");
  std::vector<double> teleport;
  PagerankOptions options;
  PagerankResult reference;

  FaultFixture() {
    Rng rng(46);
    graph = BarabasiAlbert(220, 3, &rng);
    D2PR_CHECK(graph.ok());
    teleport = UniformTeleport(graph->num_nodes());
    options.alpha = 0.85;
    options.tolerance = 1e-11;
    options.max_iterations = 2000;

    auto partition = GraphPartition::Build(*graph, {.num_shards = 2});
    D2PR_CHECK(partition.ok());
    auto slices = BuildTransitionSlicesLocal(*graph, *partition, {});
    D2PR_CHECK(slices.ok());
    auto solved =
        SolvePagerankPartitioned(*slices, *partition, teleport, options);
    D2PR_CHECK(solved.ok());
    reference = std::move(solved).value();
  }
};

FaultFixture& Fixture() {
  static FaultFixture fixture;
  return fixture;
}

/// Wraps both shards of a fresh fleet in FaultyChannels with `faults`
/// and runs one power solve, returning the coordinator's result.
struct ChaosRun {
  DistFleet fleet;
  std::vector<std::unique_ptr<FaultyChannel>> faulty;
  std::unique_ptr<DistributedCoordinator> coordinator;
  Result<PagerankResult> result = Status::Internal("unrun");
};

ChaosRun RunWithFaults(const FaultyChannel::Options& faults,
                       int max_retries = 2) {
  FaultFixture& fixture = Fixture();
  ChaosRun run;
  run.fleet = MakeFleet(*fixture.graph, 2);
  std::vector<ShardChannel*> wrapped;
  for (ShardChannel* channel : run.fleet.raw) {
    run.faulty.push_back(std::make_unique<FaultyChannel>(*channel, faults));
    wrapped.push_back(run.faulty.back().get());
  }
  CoordinatorOptions options = MakeCoordinatorOptions(*fixture.graph);
  options.max_retries = max_retries;
  run.coordinator =
      std::make_unique<DistributedCoordinator>(wrapped, options);
  const Status handshake = run.coordinator->Handshake();
  if (!handshake.ok()) {
    run.result = handshake;
    return run;
  }
  run.result = run.coordinator->Solve(SolverMethod::kPower, fixture.teleport,
                                      fixture.options);
  return run;
}

TEST(DistFaultTest, LostRepliesAreRetriedAndStayBitwise) {
  FaultyChannel::Options faults;
  faults.drop_reply_every = 7;  // the request executed; the reply vanished
  ChaosRun run = RunWithFaults(faults);
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  EXPECT_EQ(run.result->scores, Fixture().reference.scores);
  EXPECT_EQ(run.result->iterations, Fixture().reference.iterations);
  EXPECT_EQ(run.result->residual, Fixture().reference.residual);
  // The fault fired and the retry path (idempotent re-answer) healed it.
  EXPECT_GT(run.faulty[0]->replies_dropped() +
                run.faulty[1]->replies_dropped(),
            0);
  EXPECT_GT(run.coordinator->stats().retries, 0);
}

TEST(DistFaultTest, LostRequestsAreRetriedAndStayBitwise) {
  FaultyChannel::Options faults;
  faults.drop_request_every = 9;  // the worker never saw these at all
  ChaosRun run = RunWithFaults(faults);
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  EXPECT_EQ(run.result->scores, Fixture().reference.scores);
  EXPECT_GT(run.faulty[0]->requests_dropped() +
                run.faulty[1]->requests_dropped(),
            0);
}

TEST(DistFaultTest, DuplicatedFramesNeverDoubleAdvanceTheIterate) {
  FaultyChannel::Options faults;
  faults.duplicate = true;  // every frame delivered twice
  ChaosRun run = RunWithFaults(faults);
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  EXPECT_EQ(run.result->scores, Fixture().reference.scores);
  EXPECT_EQ(run.result->iterations, Fixture().reference.iterations);
  EXPECT_GT(run.faulty[0]->duplicates_sent(), 0);
}

TEST(DistFaultTest, CombinedRecoverableChaosStaysBitwise) {
  FaultyChannel::Options faults;
  faults.drop_reply_every = 7;
  faults.drop_request_every = 11;
  faults.duplicate = true;
  ChaosRun run = RunWithFaults(faults, /*max_retries=*/4);
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  EXPECT_EQ(run.result->scores, Fixture().reference.scores);
  EXPECT_EQ(run.result->iterations, Fixture().reference.iterations);
  EXPECT_EQ(run.result->residual, Fixture().reference.residual);
}

TEST(DistFaultTest, ExhaustedRetryBudgetIsDeadlineExceeded) {
  FaultyChannel::Options faults;
  faults.drop_request_every = 1;  // every call times out
  ChaosRun run = RunWithFaults(faults, /*max_retries=*/3);
  ASSERT_FALSE(run.result.ok());
  EXPECT_EQ(run.result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DistFaultTest, ShardDeathMidSolveIsUnavailable) {
  FaultyChannel::Options faults;
  faults.kill_after_sweeps = 3;  // a few sweeps in, the shard vanishes
  ChaosRun run = RunWithFaults(faults);
  ASSERT_FALSE(run.result.ok());
  EXPECT_EQ(run.result.status().code(), StatusCode::kUnavailable);
}

TEST(DistFaultTest, TruncatedRepliesFailTheSolveCleanly) {
  FaultyChannel::Options faults;
  faults.truncate_every = 5;  // mangled below the codec layer
  ChaosRun run = RunWithFaults(faults);
  ASSERT_FALSE(run.result.ok());
  EXPECT_EQ(run.result.status().code(), StatusCode::kUnavailable);
}

TEST(DistFaultTest, FleetRecoversAfterAFailedSolve) {
  // Solve 1 dies mid-flight behind faulty channels; a fresh coordinator
  // over the same workers (same sessions — re-claiming a shard you
  // already hold is legal) must then solve bitwise clean. A crashed
  // solve may never wedge the shard state.
  FaultFixture& fixture = Fixture();
  DistFleet fleet = MakeFleet(*fixture.graph, 2);

  FaultyChannel::Options faults;
  faults.kill_after_sweeps = 2;
  std::vector<std::unique_ptr<FaultyChannel>> faulty;
  std::vector<ShardChannel*> wrapped;
  for (ShardChannel* channel : fleet.raw) {
    faulty.push_back(std::make_unique<FaultyChannel>(*channel, faults));
    wrapped.push_back(faulty.back().get());
  }
  DistributedCoordinator broken(wrapped,
                                MakeCoordinatorOptions(*fixture.graph));
  ASSERT_TRUE(broken.Handshake().ok());
  auto failed = broken.Solve(SolverMethod::kPower, fixture.teleport,
                             fixture.options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  DistributedCoordinator healthy(fleet.raw,
                                 MakeCoordinatorOptions(*fixture.graph));
  ASSERT_TRUE(healthy.Handshake().ok());
  auto recovered = healthy.Solve(SolverMethod::kPower, fixture.teleport,
                                 fixture.options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->scores, fixture.reference.scores);
  EXPECT_EQ(recovered->iterations, fixture.reference.iterations);
}

TEST(DistFaultTest, DeadShardAtHandshakeIsCleanToo) {
  FaultyChannel::Options faults;
  faults.kill_after_sweeps = 0;  // dead before the first sweep...
  ChaosRun run = RunWithFaults(faults);
  // ...which also kills the handshake round-trip: a clean error either
  // way, never a hang and never a partially handshaken "success".
  ASSERT_FALSE(run.result.ok());
  EXPECT_EQ(run.result.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace d2pr
