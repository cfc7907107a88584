// ShardServer over real loopback sockets: the same coordinator fleet the
// in-process suites drive, but through SocketShardChannel -> TCP ->
// ShardServer -> ShardWorker — proving the socket hosting layer preserves
// the bit-parity contracts (power against the in-process block solve,
// block Gauss-Seidel against the in-process fleet) and the rejection
// contracts, that a rejected handshake closes ONLY its own connection,
// and that framing garbage is counted and contained.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/block_solver.h"
#include "core/teleport.h"
#include "core/transition_slices.h"
#include "dist/coordinator.h"
#include "dist/shard_server.h"
#include "dist_test_util.h"
#include "graph/partition.h"
#include "net/socket.h"

namespace d2pr {
namespace {

/// A real loopback fleet: N workers, one ShardServer each, one socket
/// channel per shard.
struct SocketFleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::unique_ptr<SocketShardChannel>> channels;
  std::vector<ShardChannel*> raw;

  SocketFleet() = default;
  SocketFleet(SocketFleet&&) = default;
  SocketFleet& operator=(SocketFleet&&) = default;
  ~SocketFleet() {
    for (auto& server : servers) server->Stop();
  }
};

/// The server sends the rejection reply BEFORE bumping its counter, so a
/// client can observe the status first; poll briefly instead of racing.
bool WaitForCount(const std::atomic<int64_t>& counter, int64_t expected) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (counter.load() == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return counter.load() == expected;
}

SocketFleet MakeSocketFleet(const CsrGraph& graph, size_t num_shards) {
  auto partition = GraphPartition::Build(graph, {.num_shards = num_shards});
  D2PR_CHECK(partition.ok()) << partition.status().ToString();
  SocketFleet fleet;
  for (size_t s = 0; s < num_shards; ++s) {
    auto cut = CutShard(graph, *partition, s);
    D2PR_CHECK(cut.ok()) << cut.status().ToString();
    auto worker = ShardWorker::Create(std::move(cut).value(), {});
    D2PR_CHECK(worker.ok()) << worker.status().ToString();
    fleet.workers.push_back(std::move(*worker));
    fleet.servers.push_back(
        std::make_unique<ShardServer>(*fleet.workers.back()));
    D2PR_CHECK(fleet.servers.back()->Start().ok());
    auto channel = SocketShardChannel::Connect(
        "127.0.0.1", fleet.servers.back()->port());
    D2PR_CHECK(channel.ok()) << channel.status().ToString();
    fleet.channels.push_back(std::move(*channel));
    fleet.raw.push_back(fleet.channels.back().get());
  }
  return fleet;
}

TEST(DistServerTest, LoopbackFleetSolvesBitwiseIdentical) {
  Rng rng(48);
  auto graph = BarabasiAlbert(200, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-11;
  options.max_iterations = 2000;

  SocketFleet fleet = MakeSocketFleet(*graph, 2);
  CoordinatorOptions coordinator_options = MakeCoordinatorOptions(*graph);
  coordinator_options.sweep_deadline_ms = 10000;  // bounded, not hit
  DistributedCoordinator coordinator(fleet.raw, coordinator_options);
  ASSERT_TRUE(coordinator.Handshake().ok());
  auto distributed = coordinator.Solve(SolverMethod::kPower, teleport,
                                       options);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();

  auto partition = GraphPartition::Build(*graph, {.num_shards = 2});
  ASSERT_TRUE(partition.ok());
  auto slices = BuildTransitionSlicesLocal(*graph, *partition, {});
  ASSERT_TRUE(slices.ok());
  auto reference =
      SolvePagerankPartitioned(*slices, *partition, teleport, options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(distributed->scores, reference->scores);
  EXPECT_EQ(distributed->iterations, reference->iterations);
  EXPECT_EQ(distributed->residual, reference->residual);

  for (auto& server : fleet.servers) {
    EXPECT_GT(server->stats().frames_handled.load(), 0);
    EXPECT_EQ(server->stats().protocol_errors.load(), 0);
    EXPECT_EQ(server->stats().handshake_rejects.load(), 0);
  }
}

TEST(DistServerTest, LoopbackGaussSeidelMatchesTheInProcessFleetBitwise) {
  // Multi-shard block Gauss-Seidel has no whole-graph equal; the socket
  // fleet must reproduce the in-process fleet over the same partition
  // bit for bit.
  Rng rng(51);
  auto graph = BarabasiAlbert(220, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  constexpr size_t kShards = 3;

  SocketFleet fleet = MakeSocketFleet(*graph, kShards);
  CoordinatorOptions coordinator_options = MakeCoordinatorOptions(*graph);
  coordinator_options.sweep_deadline_ms = 10000;  // bounded, not hit
  DistributedCoordinator coordinator(fleet.raw, coordinator_options);
  ASSERT_TRUE(coordinator.Handshake().ok());
  for (DanglingPolicy dangling :
       {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop}) {
    SCOPED_TRACE("dangling " + std::to_string(static_cast<int>(dangling)));
    PagerankOptions options;
    options.tolerance = 1e-11;
    options.max_iterations = 2000;
    options.dangling = dangling;
    auto sockets =
        coordinator.Solve(SolverMethod::kGaussSeidel, teleport, options);
    ASSERT_TRUE(sockets.ok()) << sockets.status().ToString();
    ASSERT_TRUE(sockets->converged);
    auto in_process =
        SolveOnFleet(*graph, kShards, PartitionScheme::kRange, {},
                     SolverMethod::kGaussSeidel, teleport, options);
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    EXPECT_EQ(sockets->iterations, in_process->iterations);
    EXPECT_EQ(std::memcmp(&sockets->residual, &in_process->residual,
                          sizeof(double)),
              0);
    ASSERT_EQ(sockets->scores.size(), in_process->scores.size());
    EXPECT_EQ(std::memcmp(sockets->scores.data(), in_process->scores.data(),
                          sockets->scores.size() * sizeof(double)),
              0);
  }
  for (auto& server : fleet.servers) {
    EXPECT_EQ(server->stats().protocol_errors.load(), 0);
  }
}

TEST(DistServerTest, RejectedHandshakeClosesOnlyItsOwnConnection) {
  Rng rng(49);
  auto graph = BarabasiAlbert(120, 2, &rng);
  ASSERT_TRUE(graph.ok());

  SocketFleet fleet = MakeSocketFleet(*graph, 1);
  DistributedCoordinator owner(fleet.raw, MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(owner.Handshake().ok());

  // A second coordinator with the wrong graph connects to the same
  // server. It must get the distinct rejection — and its connection,
  // not the owner's, is the one the server closes.
  auto intruder_channel =
      SocketShardChannel::Connect("127.0.0.1", fleet.servers[0]->port());
  ASSERT_TRUE(intruder_channel.ok());
  std::vector<ShardChannel*> intruder_raw = {intruder_channel->get()};
  CoordinatorOptions wrong = MakeCoordinatorOptions(*graph);
  wrong.graph_fingerprint ^= 1;
  DistributedCoordinator intruder(intruder_raw, wrong);
  const Status rejected = intruder.Handshake();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(WaitForCount(fleet.servers[0]->stats().handshake_rejects, 1));

  // The owner's claim and connection survived: a full solve still runs.
  PagerankOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 500;
  auto solved = owner.Solve(SolverMethod::kPower,
                            UniformTeleport(graph->num_nodes()), options);
  EXPECT_TRUE(solved.ok()) << solved.status().ToString();
}

TEST(DistServerTest, FramingGarbageIsCountedAndContained) {
  Rng rng(50);
  auto graph = BarabasiAlbert(80, 2, &rng);
  ASSERT_TRUE(graph.ok());

  SocketFleet fleet = MakeSocketFleet(*graph, 1);

  // A peer that is not speaking the protocol at all: 20 garbage bytes
  // where a frame header should be. The server must close that
  // connection (clean EOF from our side of the stream) and count one
  // protocol error — and keep serving real clients.
  auto garbage = Socket::Connect("127.0.0.1", fleet.servers[0]->port());
  ASSERT_TRUE(garbage.ok());
  const std::vector<uint8_t> junk(20, 0xab);
  ASSERT_TRUE(garbage->SendAll(junk.data(), junk.size()).ok());
  uint8_t byte = 0;
  bool clean_eof = false;
  const Status closed = garbage->RecvExact(&byte, 1, &clean_eof);
  EXPECT_TRUE(!closed.ok() || clean_eof);

  DistributedCoordinator coordinator(fleet.raw,
                                     MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(coordinator.Handshake().ok());
  EXPECT_EQ(fleet.servers[0]->stats().protocol_errors.load(), 1);
}

TEST(DistServerTest, StoppedServerYieldsUnavailableNotAHang) {
  Rng rng(51);
  auto graph = BarabasiAlbert(80, 2, &rng);
  ASSERT_TRUE(graph.ok());

  SocketFleet fleet = MakeSocketFleet(*graph, 1);
  DistributedCoordinator coordinator(fleet.raw,
                                     MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(coordinator.Handshake().ok());
  fleet.servers[0]->Stop();

  PagerankOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 500;
  auto result = coordinator.Solve(SolverMethod::kPower,
                                  UniformTeleport(graph->num_nodes()),
                                  options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace d2pr
