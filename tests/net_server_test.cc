// RpcServer end-to-end over loopback: responses must be bit-identical to
// direct ServingRuntime calls, deadlines must be enforced deterministically through the
// injected clock (an expired request never reaches the engine), admission
// control must shed with kUnavailable while admitted work completes,
// identical in-flight requests must coalesce into one solve, broken
// byte streams must close their connection without taking the server
// down, a memo hit must be answered without a free worker, and a client
// that stops reading must stall no server thread.

#include "net/server.h"

#include <gtest/gtest.h>
#include <sys/ioctl.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/check.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/serving_runtime.h"

namespace d2pr {
namespace {

Result<CsrGraph> TestGraph(uint64_t seed, NodeId nodes = 250,
                           int64_t edges = 750) {
  Rng rng(seed);
  return ErdosRenyi(nodes, edges, &rng);
}

/// Polls `condition` for up to five seconds; the wall-clock bound only
/// fires on deadlock, not as a tolerance for flaky behavior.
bool WaitFor(const std::function<bool()>& condition) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return condition();
}

void ExpectResponsesIdentical(const RankResponse& over_wire,
                              const RankResponse& direct, size_t index) {
  SCOPED_TRACE("request index " + std::to_string(index));
  EXPECT_EQ(over_wire.scores, direct.scores);  // exact, not approximate
  EXPECT_EQ(over_wire.method, direct.method);
  EXPECT_EQ(over_wire.iterations, direct.iterations);
  EXPECT_EQ(over_wire.pushes, direct.pushes);
  EXPECT_EQ(over_wire.converged, direct.converged);
  EXPECT_EQ(over_wire.residual, direct.residual);
  EXPECT_EQ(over_wire.transition_cache_hit, direct.transition_cache_hit);
  EXPECT_EQ(over_wire.transition_store_hit, direct.transition_store_hit);
  EXPECT_EQ(over_wire.warm_start_hit, direct.warm_start_hit);
  EXPECT_EQ(over_wire.served_partitioned, direct.served_partitioned);
}

/// A single-engine server plus everything keeping it alive.
struct RuntimeServer {
  explicit RuntimeServer(uint64_t graph_seed, ServerOptions options = {},
                         size_t num_threads = 2, NodeId nodes = 250) {
    auto graph = TestGraph(graph_seed, nodes, 3 * int64_t{nodes});
    D2PR_CHECK(graph.ok()) << graph.status().ToString();
    engine = std::make_shared<D2prEngine>(std::move(graph).value());
    ServingOptions serving_options;
    serving_options.num_threads = num_threads;
    runtime = std::make_unique<ServingRuntime>(engine, serving_options);
    backend = MakeBackend(*runtime);
    server = std::make_unique<RpcServer>(*backend, options);
    const Status started = server->Start();
    D2PR_CHECK(started.ok()) << started.ToString();
  }

  RpcClient NewClient() {
    auto client = RpcClient::Connect("127.0.0.1", server->port());
    D2PR_CHECK(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// A raw connection whose reads give up after five seconds, so a
  /// reply the server never sends fails the test instead of hanging it.
  Socket RawConnection() {
    auto socket = Socket::Connect("127.0.0.1", server->port());
    D2PR_CHECK(socket.ok()) << socket.status().ToString();
    D2PR_CHECK(socket->SetRecvTimeout(5000).ok());
    return std::move(socket).value();
  }

  /// Occupies the pool's only worker until `release` counts down.
  void ParkTheWorker(std::latch& release) {
    runtime->pool().Submit([&release] { release.wait(); });
    D2PR_CHECK(WaitFor([&] { return runtime->pool().busy_workers() == 1; }));
  }

  std::shared_ptr<D2prEngine> engine;
  std::unique_ptr<ServingRuntime> runtime;
  std::unique_ptr<RankBackend> backend;
  std::unique_ptr<RpcServer> server;
};

std::vector<uint8_t> RankFrame(uint64_t request_id,
                               const RankRequest& request) {
  WireRankRequest wire;
  wire.request = request;
  return EncodeFrame(FrameType::kRankRequest, request_id,
                     EncodeRankRequest(wire));
}

void Append(std::vector<uint8_t>& out, const std::vector<uint8_t>& frame) {
  out.insert(out.end(), frame.begin(), frame.end());
}

Result<RpcClient::RawFrame> ReadRawFrame(Socket& socket) {
  std::vector<uint8_t> header(kFrameHeaderBytes);
  D2PR_RETURN_NOT_OK(socket.RecvExact(header.data(), header.size()));
  D2PR_ASSIGN_OR_RETURN(const FrameHeader decoded, DecodeFrameHeader(header));
  RpcClient::RawFrame frame;
  frame.type = decoded.type;
  frame.request_id = decoded.request_id;
  frame.payload.resize(decoded.payload_len);
  if (!frame.payload.empty()) {
    D2PR_RETURN_NOT_OK(
        socket.RecvExact(frame.payload.data(), frame.payload.size()));
  }
  return frame;
}

/// Sends one rank request on `socket` and reads its reply's scores.
Result<std::vector<double>> RankOver(Socket& socket, uint64_t request_id,
                                     const RankRequest& request) {
  const std::vector<uint8_t> frame = RankFrame(request_id, request);
  D2PR_RETURN_NOT_OK(socket.SendAll(frame.data(), frame.size()));
  D2PR_ASSIGN_OR_RETURN(RpcClient::RawFrame reply, ReadRawFrame(socket));
  if (reply.type != FrameType::kRankResponse ||
      reply.request_id != request_id) {
    return Status::Internal("not the rank response asked for");
  }
  D2PR_ASSIGN_OR_RETURN(RankResponse response,
                        DecodeRankResponse(reply.payload));
  return std::move(response.scores);
}

/// The parity workload: all three solvers, personalization, repeats that
/// hit the score cache, and a warm-start chain.
std::vector<RankRequest> ParityWorkload() {
  std::vector<RankRequest> requests;
  RankRequest power;
  power.p = 0.3;
  power.tolerance = 1e-9;
  requests.push_back(power);

  RankRequest seeded = power;
  seeded.seeds = {5, 17, 101};
  requests.push_back(seeded);

  RankRequest gauss;
  gauss.p = 0.8;
  gauss.method = SolverMethod::kGaussSeidel;
  gauss.alpha = 0.9;
  gauss.tolerance = 1e-9;
  requests.push_back(gauss);

  RankRequest push;
  push.p = -0.5;
  push.method = SolverMethod::kForwardPush;
  push.push_epsilon = 1e-6;
  push.seeds = {42};
  requests.push_back(push);

  requests.push_back(power);   // repeat: score-cache hit path
  requests.push_back(seeded);  // repeat with seeds

  for (int i = 0; i < 3; ++i) {
    RankRequest sweep;
    sweep.p = -1.0 + 0.5 * i;
    sweep.tolerance = 1e-9;
    sweep.warm_start_tag = "sweep";
    requests.push_back(sweep);
  }
  return requests;
}

TEST(NetServerTest, LoopbackResponsesIdenticalToDirectRuntime) {
  RuntimeServer served(/*graph_seed=*/7);
  // The reference runs on its own engine over an identically-generated
  // graph, so both sides start cold and see the same request sequence.
  auto reference_graph = TestGraph(7);
  ASSERT_TRUE(reference_graph.ok());
  auto reference_engine =
      std::make_shared<D2prEngine>(std::move(reference_graph).value());
  ServingOptions serving_options;
  serving_options.num_threads = 2;
  ServingRuntime reference(reference_engine, serving_options);

  RpcClient client = served.NewClient();
  const std::vector<RankRequest> workload = ParityWorkload();
  for (size_t i = 0; i < workload.size(); ++i) {
    auto over_wire = client.Rank(workload[i]);
    auto direct = reference.Rank(workload[i]);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ExpectResponsesIdentical(over_wire.value(), direct.value(), i);
  }
}

TEST(NetServerTest, InfoReportsBackendShape) {
  RuntimeServer served(/*graph_seed=*/3, ServerOptions{},
                       /*num_threads=*/4);
  RpcClient client = served.NewClient();
  auto info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->num_nodes,
            static_cast<uint64_t>(served.engine->graph().num_nodes()));
  EXPECT_EQ(info->num_arcs,
            static_cast<uint64_t>(served.engine->graph().num_arcs()));
  EXPECT_EQ(info->num_shards, 1u);
  EXPECT_EQ(info->num_threads, 4u);
}

TEST(NetServerTest, SolverErrorsCrossTheWireVerbatim) {
  RuntimeServer served(/*graph_seed=*/5);
  RpcClient client = served.NewClient();

  RankRequest bad;
  bad.alpha = 1.5;  // out of [0, 1)
  auto over_wire = client.Rank(bad);
  auto direct = served.runtime->Rank(bad);
  ASSERT_FALSE(over_wire.ok());
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(over_wire.status().code(), direct.status().code());
  EXPECT_EQ(over_wire.status().message(), direct.status().message());

  // An application error is not a protocol error: the same connection
  // serves the next request.
  RankRequest good;
  good.p = 0.5;
  EXPECT_TRUE(client.Rank(good).ok());
  EXPECT_EQ(served.server->stats().protocol_errors.load(), 0);
}

TEST(NetServerTest, ExpiredDeadlineNeverReachesTheEngine) {
  // Stepping clock: read i returns i * 60. Stamp reads 60, so a 50 ms
  // deadline is absolute 110; the pre-solve gate reads 120 and must
  // reject without the engine ever seeing the request.
  auto ticks = std::make_shared<std::atomic<int64_t>>(0);
  ServerOptions options;
  options.clock_ms = [ticks] { return ticks->fetch_add(60) + 60; };
  RuntimeServer served(/*graph_seed=*/5, options);
  RpcClient client = served.NewClient();

  RankRequest request;
  request.p = 0.5;
  auto response = client.Rank(request, /*deadline_ms=*/50);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served.engine->stats().requests.load(), 0);
  EXPECT_EQ(served.server->stats().deadline_expired_presolve.load(), 1);
  EXPECT_EQ(served.server->stats().deadline_expired_delivery.load(), 0);
}

TEST(NetServerTest, DeadlineExpiringAfterSolveIsCaughtAtDelivery) {
  // Read i returns i * 30: stamp 30 (deadline 80), gate 60 (admitted, the
  // solve runs), delivery 90 (too late — the response is replaced).
  auto ticks = std::make_shared<std::atomic<int64_t>>(0);
  ServerOptions options;
  options.clock_ms = [ticks] { return ticks->fetch_add(30) + 30; };
  RuntimeServer served(/*graph_seed=*/5, options);
  RpcClient client = served.NewClient();

  RankRequest request;
  request.p = 0.5;
  auto response = client.Rank(request, /*deadline_ms=*/50);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
  EXPECT_EQ(served.server->stats().deadline_expired_presolve.load(), 0);
  EXPECT_EQ(served.server->stats().deadline_expired_delivery.load(), 1);
}

TEST(NetServerTest, UndeadlinedRequestsNeverReadTheClock) {
  auto reads = std::make_shared<std::atomic<int64_t>>(0);
  ServerOptions options;
  options.clock_ms = [reads] { return reads->fetch_add(1); };
  RuntimeServer served(/*graph_seed=*/5, options);
  RpcClient client = served.NewClient();

  RankRequest request;
  request.p = 0.5;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Rank(request).ok());
  }
  EXPECT_EQ(reads->load(), 0);

  // And a deadlined request costs exactly the three documented reads:
  // stamp, pre-solve gate, delivery. This one is a memo hit, answered on
  // the connection's reader thread, where the gate runs too.
  ASSERT_TRUE(client.Rank(request, /*deadline_ms=*/1'000'000).ok());
  EXPECT_EQ(reads->load(), 3);
}

TEST(NetServerTest, SaturationShedsUnavailableWhileAdmittedWorkCompletes) {
  ServerOptions options;
  options.max_queue_depth = 1;
  options.coalesce = false;
  RuntimeServer served(/*graph_seed=*/5, options, /*num_threads=*/1);

  // Park the only worker so backend queue depth is fully test-controlled.
  std::latch release(1);
  served.runtime->pool().Submit([&release] { release.wait(); });
  ASSERT_TRUE(WaitFor(
      [&] { return served.runtime->pool().busy_workers() == 1; }));

  // First request is admitted (queue depth 0 < 1) and queues behind the
  // parked worker.
  RpcClient admitted_client = served.NewClient();
  std::thread admitted_thread([&admitted_client] {
    RankRequest request;
    request.p = 0.25;
    auto response = admitted_client.Rank(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  });
  ASSERT_TRUE(
      WaitFor([&] { return served.runtime->pool().queue_depth() == 1; }));

  // Second request arrives at the bound and must be shed — as a
  // kUnavailable frame, distinguishable at the framing layer, carrying a
  // kUnavailable status.
  RpcClient shed_client = served.NewClient();
  RankRequest other;
  other.p = 0.75;
  WireRankRequest wire;
  wire.request = other;
  const std::vector<uint8_t> frame = EncodeFrame(
      FrameType::kRankRequest, /*request_id=*/77, EncodeRankRequest(wire));
  ASSERT_TRUE(shed_client.SendRaw(frame.data(), frame.size()).ok());
  auto reply = shed_client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kUnavailable);
  EXPECT_EQ(reply->request_id, 77u);
  Status shed_status;
  ASSERT_TRUE(DecodeStatusPayload(reply->payload, &shed_status).ok());
  EXPECT_EQ(shed_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(served.server->stats().shed_unavailable.load(), 1);

  // The shed never touched the pool; the admitted request completes once
  // the worker frees up.
  release.count_down();
  admitted_thread.join();
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
}

TEST(NetServerTest, IdenticalInflightRequestsCoalesceIntoOneSolve) {
  RuntimeServer served(/*graph_seed=*/5, ServerOptions{}, /*num_threads=*/1);

  std::latch release(1);
  served.runtime->pool().Submit([&release] { release.wait(); });
  ASSERT_TRUE(WaitFor(
      [&] { return served.runtime->pool().busy_workers() == 1; }));

  RankRequest request;
  request.p = 0.6;
  request.seeds = {9};

  RpcClient leader_client = served.NewClient();
  Result<RankResponse> leader_response = Status::Internal("unset");
  std::thread leader_thread([&] {
    leader_response = leader_client.Rank(request);
  });
  // The leader's solve is queued (worker parked) before the joiner sends
  // the identical request, so the join is deterministic.
  ASSERT_TRUE(
      WaitFor([&] { return served.runtime->pool().queue_depth() == 1; }));

  RpcClient joiner_client = served.NewClient();
  Result<RankResponse> joiner_response = Status::Internal("unset");
  std::thread joiner_thread([&] {
    joiner_response = joiner_client.Rank(request);
  });
  ASSERT_TRUE(WaitFor(
      [&] { return served.server->stats().coalesce_joins.load() == 1; }));

  release.count_down();
  leader_thread.join();
  joiner_thread.join();
  ASSERT_TRUE(leader_response.ok()) << leader_response.status().ToString();
  ASSERT_TRUE(joiner_response.ok()) << joiner_response.status().ToString();
  ExpectResponsesIdentical(joiner_response.value(), leader_response.value(),
                           0);
  // One solve served both waiters.
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
  EXPECT_EQ(served.server->stats().requests_received.load(), 2);
}

TEST(NetServerTest, GarbageBytesCloseTheConnectionNotTheServer) {
  RuntimeServer served(/*graph_seed=*/5);
  {
    RpcClient garbage_client = served.NewClient();
    std::vector<uint8_t> garbage(kFrameHeaderBytes, 0xff);
    ASSERT_TRUE(
        garbage_client.SendRaw(garbage.data(), garbage.size()).ok());
    // The server drops the connection; the read surfaces the close.
    EXPECT_FALSE(garbage_client.ReadFrame().ok());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return served.server->stats().protocol_errors.load() >= 1; }));

  // The server is unharmed: a fresh connection serves normally.
  RpcClient client = served.NewClient();
  RankRequest request;
  request.p = 0.5;
  EXPECT_TRUE(client.Rank(request).ok());
}

TEST(NetServerTest, TruncatedHeaderAtDisconnectCountsAsProtocolError) {
  RuntimeServer served(/*graph_seed=*/5);
  {
    RpcClient client = served.NewClient();
    const uint8_t partial[5] = {1, 2, 3, 4, 5};
    ASSERT_TRUE(client.SendRaw(partial, sizeof(partial)).ok());
    // Client destructor closes the socket mid-header.
  }
  EXPECT_TRUE(WaitFor(
      [&] { return served.server->stats().protocol_errors.load() == 1; }));
}

TEST(NetServerTest, UndecodablePayloadGetsStatusReplyAndConnectionLives) {
  RuntimeServer served(/*graph_seed=*/5);
  RpcClient client = served.NewClient();

  const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe};
  const std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kRankRequest, /*request_id=*/31, junk);
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kStatus);
  EXPECT_EQ(reply->request_id, 31u);
  Status decoded;
  ASSERT_TRUE(DecodeStatusPayload(reply->payload, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(served.server->stats().decode_errors.load(), 1);
  EXPECT_EQ(served.server->stats().protocol_errors.load(), 0);

  // Same connection, next request: still served.
  RankRequest request;
  request.p = 0.5;
  EXPECT_TRUE(client.Rank(request).ok());
}

TEST(NetServerTest, ServerBoundFrameTypeFromClientIsAProtocolError) {
  RuntimeServer served(/*graph_seed=*/5);
  RpcClient client = served.NewClient();
  const std::vector<uint8_t> frame = EncodeFrame(
      FrameType::kRankResponse, /*request_id=*/1,
      EncodeRankResponse(RankResponse{}));
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  EXPECT_FALSE(client.ReadFrame().ok());
  EXPECT_TRUE(WaitFor(
      [&] { return served.server->stats().protocol_errors.load() == 1; }));
}

TEST(NetServerTest, LoadGeneratorRunsCleanAgainstLoopbackServer) {
  RuntimeServer served(/*graph_seed=*/17);
  LoadGenOptions options;
  options.port = served.server->port();
  options.connections = 2;
  options.requests_per_connection = 20;
  options.zipf_s = 1.2;
  options.global_fraction = 0.25;
  options.seed = 99;
  options.base.tolerance = 1e-6;  // keep the suite fast
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->attempted, 40u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->ok + report->unavailable + report->deadline_exceeded,
            report->attempted);
  EXPECT_GE(report->p99_us, report->p50_us);
  EXPECT_EQ(served.server->stats().protocol_errors.load(), 0);
  // Served and offered throughput agree on a clean run (every attempt
  // was served), and both reconstruct their counts from elapsed time.
  EXPECT_EQ(report->ok, report->attempted);
  EXPECT_NEAR(report->requests_per_s * report->elapsed_s,
              static_cast<double>(report->ok), 1e-6);
  EXPECT_NEAR(report->attempted_per_s * report->elapsed_s,
              static_cast<double>(report->attempted), 1e-6);
}

TEST(NetServerTest, LoadGenReportsOkOnlyThroughputAndLatencyWhenSaturated) {
  // max_queue_depth = 0 sheds every rank request at the door
  // (queue_depth() >= 0 always holds), a deterministic stand-in for a
  // fully saturated backend: each round-trip is a microsecond-scale
  // admission reject, nothing is ever served. The old report divided
  // *attempted* by elapsed and sampled every round-trip, so this exact
  // scenario reported thousands of requests per second at microsecond
  // percentiles while serving nothing; ok-only accounting reports zero.
  ServerOptions server_options;
  server_options.max_queue_depth = 0;
  server_options.coalesce = false;
  RuntimeServer served(/*graph_seed=*/17, server_options);

  LoadGenOptions options;
  options.port = served.server->port();
  options.connections = 2;
  options.requests_per_connection = 15;
  options.zipf_s = 1.2;
  options.seed = 7;
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The offered side stays fully visible...
  EXPECT_EQ(report->attempted, 30u);
  EXPECT_EQ(report->unavailable, 30u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_GT(report->attempted_per_s, 0.0);
  // ...while the served side truthfully reports nothing was served.
  EXPECT_EQ(report->ok, 0u);
  EXPECT_EQ(report->requests_per_s, 0.0);
  EXPECT_EQ(report->p50_us, 0.0);
  EXPECT_EQ(report->p99_us, 0.0);
  EXPECT_EQ(served.server->stats().shed_unavailable.load(), 30);
}

TEST(NetServerTest, StopDrainsAdmittedRequestsBeforeExiting) {
  RuntimeServer served(/*graph_seed=*/5, ServerOptions{}, /*num_threads=*/1);

  std::latch release(1);
  served.runtime->pool().Submit([&release] { release.wait(); });
  ASSERT_TRUE(WaitFor(
      [&] { return served.runtime->pool().busy_workers() == 1; }));

  RpcClient client = served.NewClient();
  Result<RankResponse> response = Status::Internal("unset");
  std::thread requester([&] {
    RankRequest request;
    request.p = 0.5;
    response = client.Rank(request);
  });
  ASSERT_TRUE(
      WaitFor([&] { return served.runtime->pool().queue_depth() == 1; }));

  // Stop() must wait for the admitted solve, not abandon it: release the
  // worker from another thread while Stop() is draining.
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.count_down();
  });
  served.server->Stop();
  releaser.join();
  requester.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
}

TEST(NetServerTest, ExpiredDeadlineOnAMemoHitIsRejectedAtTheGate) {
  // Read i returns i * 60, as in ExpiredDeadlineNeverReachesTheEngine; the
  // undeadlined first request memoizes the key and reads no clock.
  auto ticks = std::make_shared<std::atomic<int64_t>>(0);
  ServerOptions options;
  options.clock_ms = [ticks] { return ticks->fetch_add(60) + 60; };
  RuntimeServer served(/*graph_seed=*/5, options);
  RpcClient client = served.NewClient();

  RankRequest request;
  request.p = 0.5;
  ASSERT_TRUE(client.Rank(request).ok());
  const ScoreCacheStats before = served.runtime->score_cache().stats();

  auto response = client.Rank(request, /*deadline_ms=*/50);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
  EXPECT_EQ(served.server->stats().deadline_expired_presolve.load(), 1);
  EXPECT_EQ(served.server->stats().deadline_expired_delivery.load(), 0);
  EXPECT_EQ(ticks->load(), 3 * 60);  // stamp, gate, delivery
  // The gate ran before the memo copy: no lookup was counted.
  EXPECT_EQ(served.runtime->score_cache().stats().hits, before.hits);
}

TEST(NetServerTest, MemoHitIsAnsweredWhileTheOnlyWorkerIsParked) {
  RuntimeServer served(/*graph_seed=*/5, ServerOptions{}, /*num_threads=*/1);
  RankRequest cached;
  cached.p = 0.5;
  cached.seeds = {3};
  auto first = served.NewClient().Rank(cached);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int64_t solves = served.engine->stats().requests.load();
  const int64_t hits = served.runtime->score_cache().stats().hits;

  std::latch release(1);
  served.ParkTheWorker(release);
  // EXPECT, not ASSERT, until the worker is released: a failed check
  // must not return with it parked.
  Socket socket = served.RawConnection();
  auto hit = RankOver(socket, /*request_id=*/1, cached);
  EXPECT_TRUE(hit.ok() && *hit == first->scores)
      << (hit.ok() ? "scores differ" : hit.status().ToString());
  EXPECT_EQ(served.engine->stats().requests.load(), solves);
  EXPECT_EQ(served.runtime->score_cache().stats().hits, hits + 1);

  // A key that is not cached waits for the worker.
  RankRequest cold = cached;
  cold.seeds = {4};
  const std::vector<uint8_t> frame = RankFrame(/*request_id=*/2, cold);
  EXPECT_TRUE(socket.SendAll(frame.data(), frame.size()).ok());
  EXPECT_TRUE(
      WaitFor([&] { return served.runtime->pool().queue_depth() == 1; }));
  release.count_down();
  auto reply = ReadRawFrame(socket);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kRankResponse);
  EXPECT_EQ(reply->request_id, 2u);
  EXPECT_EQ(served.engine->stats().requests.load(), solves + 1);
}

TEST(NetServerTest, ClientThatStopsReadingStallsNoServerThread) {
  // 10k nodes: every full-vector reply is ~80 KB. One worker, so a worker
  // stuck sending would starve every other connection.
  RuntimeServer served(/*graph_seed=*/5, ServerOptions{}, /*num_threads=*/1,
                       /*nodes=*/10000);
  RankRequest hot;
  hot.p = 0.5;
  hot.method = SolverMethod::kForwardPush;
  hot.push_epsilon = 1e-4;
  hot.seeds = {0};
  ASSERT_TRUE(served.NewClient().Rank(hot).ok());  // memoize the hot key

  // Pipeline ~20 MB of replies without reading any: more than the two
  // sockets' buffers hold, so the server's sends would block. Most are
  // memo hits answered on the reader; every 16th is a cold solve answered
  // from the worker.
  constexpr uint64_t kPipelined = 256;
  std::vector<uint8_t> burst;
  for (uint64_t id = 1; id <= kPipelined; ++id) {
    RankRequest request = hot;
    if (id % 16 == 0) request.seeds = {static_cast<NodeId>(id)};
    Append(burst, RankFrame(id, request));
  }
  Socket stalled = served.RawConnection();
  ASSERT_TRUE(stalled.SendAll(burst.data(), burst.size()).ok());
  // The reader took every request in, and the worker finished every cold
  // solve, although the stalled client has read nothing.
  EXPECT_TRUE(WaitFor([&] {
    return served.server->stats().responses_sent.load() == 1 + kPipelined;
  }));
  int pending_bytes = 0;
  ASSERT_EQ(::ioctl(stalled.fd(), FIONREAD, &pending_bytes), 0);
  EXPECT_LT(static_cast<uint64_t>(pending_bytes), kPipelined * 80'000)
      << "every reply fit in the buffers; the server's sends never blocked";

  // Another connection still gets a cold solve and a memo hit.
  Socket other = served.RawConnection();
  RankRequest cold = hot;
  cold.seeds = {9999};
  auto solved = RankOver(other, /*request_id=*/1, cold);
  EXPECT_TRUE(solved.ok()) << solved.status().ToString();
  auto hit = RankOver(other, /*request_id=*/2, hot);
  EXPECT_TRUE(hit.ok()) << hit.status().ToString();

  // The stalled client reads everything: whole frames, each request
  // answered exactly once.
  std::set<uint64_t> answered;
  for (uint64_t i = 0; i < kPipelined; ++i) {
    auto reply = ReadRawFrame(stalled);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, FrameType::kRankResponse);
    auto response = DecodeRankResponse(reply->payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->scores.size(), 10000u);
    EXPECT_TRUE(answered.insert(reply->request_id).second)
        << "request " << reply->request_id << " answered twice";
  }
  EXPECT_EQ(answered.size(), kPipelined);
  EXPECT_EQ(*answered.begin(), 1u);
  EXPECT_EQ(*answered.rbegin(), kPipelined);
  EXPECT_EQ(served.server->stats().protocol_errors.load(), 0);
}

TEST(NetServerTest, CountersReconcileOverAMixedBurst) {
  ServerOptions options;
  options.max_queue_depth = 2;
  RuntimeServer served(/*graph_seed=*/5, options, /*num_threads=*/1);
  RankRequest hit;
  hit.p = 0.5;
  hit.seeds = {1};
  ASSERT_TRUE(served.NewClient().Rank(hit).ok());  // a miss and a solve

  std::latch release(1);
  served.ParkTheWorker(release);
  // One connection, read in order by one reader thread: two memo hits,
  // two solves that fill the queue, a join of the first solve, a request
  // shed at the full queue, an undecodable frame and an info request.
  RankRequest solve_a = hit;
  solve_a.seeds = {2};
  RankRequest solve_b = hit;
  solve_b.seeds = {3};
  RankRequest shed = hit;
  shed.seeds = {4};
  std::vector<uint8_t> burst;
  Append(burst, RankFrame(1, hit));
  Append(burst, RankFrame(2, hit));
  Append(burst, RankFrame(3, solve_a));
  Append(burst, RankFrame(4, solve_b));
  Append(burst, RankFrame(5, solve_a));
  Append(burst, RankFrame(6, shed));
  Append(burst, EncodeFrame(FrameType::kRankRequest, 7,
                            std::vector<uint8_t>{0xde, 0xad}));
  Append(burst, EncodeFrame(FrameType::kInfoRequest, 8, {}));
  Socket socket = served.RawConnection();
  EXPECT_TRUE(socket.SendAll(burst.data(), burst.size()).ok());
  const ServerStats& stats = served.server->stats();
  EXPECT_TRUE(WaitFor([&] { return stats.decode_errors.load() == 1; }));
  EXPECT_EQ(stats.coalesce_joins.load(), 1);
  EXPECT_EQ(stats.shed_unavailable.load(), 1);
  release.count_down();

  std::vector<FrameType> types(9, FrameType::kStatus);
  for (int i = 0; i < 8; ++i) {
    auto reply = ReadRawFrame(socket);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_GE(reply->request_id, 1u);
    ASSERT_LE(reply->request_id, 8u);
    types[reply->request_id] = reply->type;
  }
  for (uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(types[id], FrameType::kRankResponse) << "request " << id;
  }
  EXPECT_EQ(types[6], FrameType::kUnavailable);
  EXPECT_EQ(types[7], FrameType::kStatus);
  EXPECT_EQ(types[8], FrameType::kInfoResponse);

  // Every decoded rank frame and every undecodable one got one reply (the
  // info reply is not a rank reply).
  EXPECT_EQ(stats.requests_received.load(), 7);
  EXPECT_EQ(stats.requests_received.load() + stats.decode_errors.load(),
            stats.responses_sent.load());
  // The runtime saw five cacheable calls (the join and the shed never
  // reached it): hits + misses = calls, and misses = solves.
  const ScoreCacheStats memo = served.runtime->score_cache().stats();
  EXPECT_EQ(memo.hits, 2);
  EXPECT_EQ(memo.hits + memo.misses, 5);
  EXPECT_EQ(memo.misses, served.engine->stats().requests.load());
}

}  // namespace
}  // namespace d2pr
