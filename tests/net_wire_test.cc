// Wire-protocol codecs: exact round-trips across the full enum space,
// and rejection (never a crash, never a bogus success) of malformed
// bytes — truncation at every boundary, oversize lengths, bad magic and
// version, corrupted payloads.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "net/shard_wire.h"

namespace d2pr {
namespace {

void ExpectRequestsEqual(const WireRankRequest& a, const WireRankRequest& b) {
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.request.p, b.request.p);
  EXPECT_EQ(a.request.beta, b.request.beta);
  EXPECT_EQ(a.request.metric, b.request.metric);
  EXPECT_EQ(a.request.alpha, b.request.alpha);
  EXPECT_EQ(a.request.tolerance, b.request.tolerance);
  EXPECT_EQ(a.request.max_iterations, b.request.max_iterations);
  EXPECT_EQ(a.request.dangling, b.request.dangling);
  EXPECT_EQ(a.request.method, b.request.method);
  EXPECT_EQ(a.request.push_epsilon, b.request.push_epsilon);
  EXPECT_EQ(a.request.seeds, b.request.seeds);
  EXPECT_EQ(a.request.warm_start_tag, b.request.warm_start_tag);
  EXPECT_EQ(a.request.top_k, b.request.top_k);
}

TEST(NetWireTest, RankRequestRoundTripsEverySolverMetricDanglingCombo) {
  const SolverMethod methods[] = {SolverMethod::kPower,
                                  SolverMethod::kGaussSeidel,
                                  SolverMethod::kForwardPush};
  const DegreeMetric metrics[] = {DegreeMetric::kAuto,
                                  DegreeMetric::kOutDegree,
                                  DegreeMetric::kOutStrength,
                                  DegreeMetric::kInDegree};
  const DanglingPolicy danglings[] = {DanglingPolicy::kTeleport,
                                      DanglingPolicy::kSelfLoop,
                                      DanglingPolicy::kRenormalize};
  int combo = 0;
  for (SolverMethod method : methods) {
    for (DegreeMetric metric : metrics) {
      for (DanglingPolicy dangling : danglings) {
        SCOPED_TRACE("combo " + std::to_string(combo));
        WireRankRequest wire;
        wire.deadline_ms = static_cast<uint64_t>(combo) * 17;
        wire.request.p = -2.5 + combo * 0.125;
        wire.request.beta = (combo % 5) * 0.25;
        wire.request.metric = metric;
        wire.request.alpha = 0.5 + (combo % 4) * 0.1;
        wire.request.tolerance = 1e-10;
        wire.request.max_iterations = 100 + combo;
        wire.request.dangling = dangling;
        wire.request.method = method;
        wire.request.push_epsilon = 1e-7 * (1 + combo);
        if (combo % 2 == 0) wire.request.seeds = {0, 7, 42};
        if (combo % 3 == 0) wire.request.warm_start_tag = "sweep-p";
        auto decoded = DecodeRankRequest(EncodeRankRequest(wire));
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        ExpectRequestsEqual(decoded.value(), wire);
        ++combo;
      }
    }
  }
  EXPECT_EQ(combo, 36);
}

TEST(NetWireTest, RankRequestRoundTripsBitExactDoubles) {
  // NaN tolerance or signed-zero p must survive the wire bit-for-bit —
  // the server re-validates; the codec must not launder values.
  WireRankRequest wire;
  wire.request.p = -0.0;
  wire.request.alpha = std::numeric_limits<double>::quiet_NaN();
  auto decoded = DecodeRankRequest(EncodeRankRequest(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::signbit(decoded.value().request.p));
  EXPECT_TRUE(std::isnan(decoded.value().request.alpha));
}

TEST(NetWireTest, RankResponseRoundTripsAllFlagCombinations) {
  for (uint32_t flags = 0; flags < 32; ++flags) {
    SCOPED_TRACE("flags " + std::to_string(flags));
    RankResponse response;
    response.scores = {0.25, 0.5, 0.125, 0.125};
    response.method = static_cast<SolverMethod>(flags % 3);
    response.iterations = static_cast<int>(flags) * 3;
    response.pushes = 1'000'000'000'000ll + flags;
    response.residual = 1e-11 * flags;
    response.converged = (flags & 1) != 0;
    response.transition_cache_hit = (flags & 2) != 0;
    response.transition_store_hit = (flags & 4) != 0;
    response.warm_start_hit = (flags & 8) != 0;
    response.served_partitioned = (flags & 16) != 0;
    auto decoded = DecodeRankResponse(EncodeRankResponse(response));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().scores, response.scores);
    EXPECT_EQ(decoded.value().method, response.method);
    EXPECT_EQ(decoded.value().iterations, response.iterations);
    EXPECT_EQ(decoded.value().pushes, response.pushes);
    EXPECT_EQ(decoded.value().residual, response.residual);
    EXPECT_EQ(decoded.value().converged, response.converged);
    EXPECT_EQ(decoded.value().transition_cache_hit,
              response.transition_cache_hit);
    EXPECT_EQ(decoded.value().transition_store_hit,
              response.transition_store_hit);
    EXPECT_EQ(decoded.value().warm_start_hit, response.warm_start_hit);
    EXPECT_EQ(decoded.value().served_partitioned,
              response.served_partitioned);
  }
}

TEST(NetWireTest, StatusPayloadRoundTripsEveryCode) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kUnavailable);
       ++code) {
    SCOPED_TRACE("code " + std::to_string(code));
    const Status original(static_cast<StatusCode>(code),
                          "message for code " + std::to_string(code));
    Status decoded;
    const Status ok = DecodeStatusPayload(EncodeStatusPayload(original),
                                          &decoded);
    ASSERT_TRUE(ok.ok()) << ok.ToString();
    EXPECT_EQ(decoded.code(), original.code());
    if (code != 0) EXPECT_EQ(decoded.message(), original.message());
  }
}

TEST(NetWireTest, ServerInfoRoundTrips) {
  ServerInfo info{123456789ull, 987654321ull, 4, 8};
  auto decoded = DecodeServerInfo(EncodeServerInfo(info));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().num_nodes, info.num_nodes);
  EXPECT_EQ(decoded.value().num_arcs, info.num_arcs);
  EXPECT_EQ(decoded.value().num_shards, info.num_shards);
  EXPECT_EQ(decoded.value().num_threads, info.num_threads);
}

TEST(NetWireTest, FrameHeaderRoundTrips) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kRankResponse, 0xdeadbeefcafef00dull, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  auto header = DecodeFrameHeader(frame);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header.value().payload_len, payload.size());
  EXPECT_EQ(header.value().type, FrameType::kRankResponse);
  EXPECT_EQ(header.value().request_id, 0xdeadbeefcafef00dull);
}

TEST(NetWireTest, FrameHeaderRejectsBadMagicVersionTypeAndLength) {
  const std::vector<uint8_t> good =
      EncodeFrame(FrameType::kStatus, 7, std::vector<uint8_t>{});
  {
    std::vector<uint8_t> bad = good;
    bad[4] ^= 0xff;  // magic
    EXPECT_FALSE(DecodeFrameHeader(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[8] = 99;  // version
    EXPECT_FALSE(DecodeFrameHeader(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[10] = 0;  // type 0: below the valid range
    EXPECT_FALSE(DecodeFrameHeader(bad).ok());
    bad[10] = 200;  // far above it
    EXPECT_FALSE(DecodeFrameHeader(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    // payload_len = kMaxPayloadBytes + 1 (little-endian at offset 0).
    const uint32_t oversize = kMaxPayloadBytes + 1;
    bad[0] = static_cast<uint8_t>(oversize);
    bad[1] = static_cast<uint8_t>(oversize >> 8);
    bad[2] = static_cast<uint8_t>(oversize >> 16);
    bad[3] = static_cast<uint8_t>(oversize >> 24);
    EXPECT_FALSE(DecodeFrameHeader(bad).ok());
  }
}

TEST(NetWireTest, FrameHeaderRejectsEveryTruncation) {
  const std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kInfoRequest, 1, std::vector<uint8_t>{});
  for (size_t len = 0; len < kFrameHeaderBytes; ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    EXPECT_FALSE(
        DecodeFrameHeader(std::span<const uint8_t>(frame.data(), len)).ok());
  }
}

TEST(NetWireTest, PayloadDecodersRejectEveryTruncation) {
  WireRankRequest wire;
  wire.deadline_ms = 250;
  wire.request.p = 0.5;
  wire.request.seeds = {3, 1, 4, 1, 5};
  wire.request.warm_start_tag = "trajectory";
  const std::vector<uint8_t> request_payload = EncodeRankRequest(wire);
  for (size_t len = 0; len < request_payload.size(); ++len) {
    SCOPED_TRACE("request truncated to " + std::to_string(len));
    EXPECT_FALSE(
        DecodeRankRequest({request_payload.data(), len}).ok());
  }

  RankResponse response;
  response.scores = {0.5, 0.25, 0.25};
  response.converged = true;
  const std::vector<uint8_t> response_payload = EncodeRankResponse(response);
  for (size_t len = 0; len < response_payload.size(); ++len) {
    SCOPED_TRACE("response truncated to " + std::to_string(len));
    EXPECT_FALSE(
        DecodeRankResponse({response_payload.data(), len}).ok());
  }

  const std::vector<uint8_t> status_payload =
      EncodeStatusPayload(Status::InvalidArgument("bad alpha"));
  for (size_t len = 0; len < status_payload.size(); ++len) {
    SCOPED_TRACE("status truncated to " + std::to_string(len));
    Status decoded;
    EXPECT_FALSE(
        DecodeStatusPayload({status_payload.data(), len}, &decoded).ok());
  }

  const std::vector<uint8_t> info_payload =
      EncodeServerInfo(ServerInfo{10, 20, 2, 4});
  for (size_t len = 0; len < info_payload.size(); ++len) {
    SCOPED_TRACE("info truncated to " + std::to_string(len));
    EXPECT_FALSE(DecodeServerInfo({info_payload.data(), len}).ok());
  }
}

TEST(NetWireTest, PayloadDecodersRejectTrailingGarbage) {
  WireRankRequest wire;
  wire.request.seeds = {1};
  std::vector<uint8_t> padded = EncodeRankRequest(wire);
  padded.push_back(0);
  EXPECT_FALSE(DecodeRankRequest(padded).ok());

  std::vector<uint8_t> response = EncodeRankResponse(RankResponse{});
  response.push_back(0);
  EXPECT_FALSE(DecodeRankResponse(response).ok());
}

TEST(NetWireTest, RankRequestRejectsOutOfRangeEnums) {
  WireRankRequest wire;
  std::vector<uint8_t> payload = EncodeRankRequest(wire);
  // metric is the u32 after deadline(8) + p(8) + beta(8) = offset 24.
  payload[24] = 200;
  EXPECT_FALSE(DecodeRankRequest(payload).ok());
}

TEST(NetWireTest, RankRequestRejectsLyingSeedCount) {
  // A seed count larger than the remaining bytes must be rejected before
  // any allocation sized from it.
  WireRankRequest wire;
  wire.request.seeds = {1, 2};
  std::vector<uint8_t> payload = EncodeRankRequest(wire);
  // num_seeds is the u64 at offset 8*6 + 4*4 = 64 (after deadline, p,
  // beta, metric, alpha, tolerance, max_iterations, dangling, method,
  // push_epsilon).
  const size_t seed_count_offset = 64;
  for (int b = 0; b < 8; ++b) payload[seed_count_offset + b] = 0xff;
  EXPECT_FALSE(DecodeRankRequest(payload).ok());
}

// --- top-k extension ---

TEST(NetWireTopKTest, RequestTopKRoundTrips) {
  for (int top_k : {1, 10, 5000, std::numeric_limits<int32_t>::max()}) {
    SCOPED_TRACE("top_k " + std::to_string(top_k));
    WireRankRequest wire;
    wire.request.seeds = {3, 9};
    wire.request.method = SolverMethod::kForwardPush;
    wire.request.top_k = top_k;
    auto decoded = DecodeRankRequest(EncodeRankRequest(wire));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectRequestsEqual(decoded.value(), wire);
  }
}

TEST(NetWireTopKTest, ExactRequestIsByteIdenticalToOldFormat) {
  // top_k = 0 must not be encoded at all: the exact-serving frame is the
  // pre-top-k frame, so old servers and new servers read the same bytes.
  WireRankRequest wire;
  wire.request.seeds = {1, 2, 3};
  wire.request.warm_start_tag = "tag";
  const std::vector<uint8_t> exact = EncodeRankRequest(wire);
  wire.request.top_k = 7;
  const std::vector<uint8_t> truncated = EncodeRankRequest(wire);
  EXPECT_EQ(truncated.size(), exact.size() + 4);
  EXPECT_TRUE(std::equal(exact.begin(), exact.end(), truncated.begin()));

  // And an old-format frame (no trailing field) decodes as top_k = 0.
  auto decoded = DecodeRankRequest(exact);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request.top_k, 0);
}

TEST(NetWireTopKTest, RequestRejectsOutOfRangeTopK) {
  WireRankRequest wire;
  wire.request.top_k = 1;
  std::vector<uint8_t> payload = EncodeRankRequest(wire);
  // Overwrite the trailing u32 with a value above INT32_MAX.
  const size_t at = payload.size() - 4;
  payload[at] = 0xff;
  payload[at + 1] = 0xff;
  payload[at + 2] = 0xff;
  payload[at + 3] = 0xff;
  auto decoded = DecodeRankRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("top_k"), std::string::npos);
}

TEST(NetWireTopKTest, RequestWithTopKRejectsEveryRealTruncation) {
  WireRankRequest wire;
  wire.request.seeds = {3, 1, 4};
  wire.request.warm_start_tag = "t";
  wire.request.top_k = 12;
  const std::vector<uint8_t> payload = EncodeRankRequest(wire);
  for (size_t len = 0; len < payload.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    auto decoded = DecodeRankRequest({payload.data(), len});
    if (len == payload.size() - 4) {
      // Dropping exactly the optional field yields a valid old-format
      // frame — the one truncation that is by construction decodable,
      // and it must read back as exact serving, not a garbled k.
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value().request.top_k, 0);
    } else {
      EXPECT_FALSE(decoded.ok());
    }
  }
}

RankResponse TruncatedResponse() {
  RankResponse response;
  response.truncated = true;
  response.top = {{7, 0.5, true}, {3, 0.25, true}, {11, 0.125, false}};
  response.uncertainty_gap = 3e-4;
  response.method = SolverMethod::kForwardPush;
  response.pushes = 4200;
  response.converged = true;
  return response;
}

TEST(NetWireTopKTest, TruncatedResponseRoundTrips) {
  const RankResponse response = TruncatedResponse();
  auto decoded = DecodeRankResponse(EncodeRankResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().truncated);
  EXPECT_TRUE(decoded.value().scores.empty());
  ASSERT_EQ(decoded.value().top.size(), response.top.size());
  for (size_t i = 0; i < response.top.size(); ++i) {
    EXPECT_EQ(decoded.value().top[i], response.top[i]) << "entry " << i;
  }
  EXPECT_EQ(decoded.value().uncertainty_gap, response.uncertainty_gap);
  EXPECT_EQ(decoded.value().pushes, response.pushes);

  // An empty truncated set (k-query against an empty graph) still rides
  // the flag bit and round-trips.
  RankResponse empty;
  empty.truncated = true;
  auto empty_decoded = DecodeRankResponse(EncodeRankResponse(empty));
  ASSERT_TRUE(empty_decoded.ok());
  EXPECT_TRUE(empty_decoded.value().truncated);
  EXPECT_TRUE(empty_decoded.value().top.empty());
}

TEST(NetWireTopKTest, ExactResponseIsByteIdenticalToOldFormat) {
  RankResponse response;
  response.scores = {0.5, 0.5};
  response.converged = true;
  const std::vector<uint8_t> payload = EncodeRankResponse(response);
  // flags is the final u32 of the pre-top-k layout; bit 5 must be clear
  // and no truncated section may follow.
  const size_t flags_at = payload.size() - 4;
  EXPECT_EQ(payload[flags_at] & 0x20, 0);
  auto decoded = DecodeRankResponse(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().truncated);
  EXPECT_TRUE(decoded.value().top.empty());
  EXPECT_EQ(decoded.value().uncertainty_gap, 0.0);
}

TEST(NetWireTopKTest, TruncatedResponseRejectsEveryTruncation) {
  const std::vector<uint8_t> payload =
      EncodeRankResponse(TruncatedResponse());
  for (size_t len = 0; len < payload.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    EXPECT_FALSE(DecodeRankResponse({payload.data(), len}).ok());
  }
}

TEST(NetWireTopKTest, TruncatedResponseRejectsTrailingGarbage) {
  std::vector<uint8_t> payload = EncodeRankResponse(TruncatedResponse());
  payload.push_back(0);
  EXPECT_FALSE(DecodeRankResponse(payload).ok());
}

TEST(NetWireTopKTest, TruncatedResponseRejectsLyingEntryCount) {
  std::vector<uint8_t> payload = EncodeRankResponse(TruncatedResponse());
  // The entry count is the u64 right after the flags word: scores count
  // (8, zero scores) + method(4) + iterations(4) + pushes(8) +
  // residual(8) + flags(4) = offset 36.
  const size_t count_at = 36;
  for (int b = 0; b < 8; ++b) payload[count_at + b] = 0xff;
  EXPECT_FALSE(DecodeRankResponse(payload).ok());
}

TEST(NetWireTopKTest, TruncatedResponseRejectsBadCertifiedByte) {
  std::vector<uint8_t> payload = EncodeRankResponse(TruncatedResponse());
  // First entry's certified byte: entries start at offset 44 (count at
  // 36 + 8), each entry is node(4) + score(8) + certified(1).
  const size_t certified_at = 44 + 4 + 8;
  ASSERT_EQ(payload[certified_at], 1);
  payload[certified_at] = 2;
  auto decoded = DecodeRankResponse(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("certified"), std::string::npos);
}

TEST(NetWireTopKTest, ResponseRejectsUnknownFlagBits) {
  std::vector<uint8_t> payload = EncodeRankResponse(RankResponse{});
  const size_t flags_at = payload.size() - 4;
  payload[flags_at] |= 0x40;  // bit 6: above the known mask
  EXPECT_FALSE(DecodeRankResponse(payload).ok());
}

TEST(NetWireTopKTest, RandomCorruptionNeverCrashesTopKDecoders) {
  // The corruption fuzz of NetWireTest, re-aimed at payloads that carry
  // the optional field and the flag-gated section.
  Rng rng(20260809);
  WireRankRequest wire;
  wire.request.seeds = {5, 10};
  wire.request.top_k = 25;
  const std::vector<uint8_t> request_payload = EncodeRankRequest(wire);
  const std::vector<uint8_t> response_payload =
      EncodeRankResponse(TruncatedResponse());
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> corrupted =
        (trial % 2 == 0) ? request_payload : response_payload;
    const int flips = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < flips; ++f) {
      corrupted[rng.Next() % corrupted.size()] ^=
          static_cast<uint8_t>(1 + rng.Next() % 255);
    }
    if (trial % 2 == 0) {
      (void)DecodeRankRequest(corrupted);
    } else {
      (void)DecodeRankResponse(corrupted);
    }
  }
}

TEST(NetWireTest, RandomCorruptionNeverCrashesDecoders) {
  // Fuzz: flip random bytes in valid payloads; decoders must either
  // reject or produce a value, never crash or over-read (ASan-observable
  // if they did).
  Rng rng(20260808);
  WireRankRequest wire;
  wire.deadline_ms = 99;
  wire.request.seeds = {5, 10, 15};
  wire.request.warm_start_tag = "tag";
  const std::vector<uint8_t> request_payload = EncodeRankRequest(wire);
  RankResponse response;
  response.scores = {0.1, 0.2, 0.3, 0.4};
  const std::vector<uint8_t> response_payload = EncodeRankResponse(response);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> corrupted =
        (trial % 2 == 0) ? request_payload : response_payload;
    const int flips = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < flips; ++f) {
      corrupted[rng.Next() % corrupted.size()] ^=
          static_cast<uint8_t>(1 + rng.Next() % 255);
    }
    if (trial % 2 == 0) {
      (void)DecodeRankRequest(corrupted);
    } else {
      (void)DecodeRankResponse(corrupted);
    }
  }
}

// --- v2 distributed-block-solve frames (net/shard_wire.h) ---

ShardHandshake SampleHandshake() {
  ShardHandshake handshake;
  handshake.shard_id = 2;
  handshake.num_shards = 4;
  handshake.scheme = PartitionScheme::kHash;
  handshake.graph_fingerprint = 0xfeedfacecafebeefull;
  handshake.p = 0.5;
  handshake.beta = 0.25;
  handshake.metric = DegreeMetric::kOutStrength;
  return handshake;
}

ShardHandshakeAck SampleAck() {
  ShardHandshakeAck ack;
  ack.num_nodes = 1000;
  ack.num_arcs = 8000;
  ack.num_owned = 250;
  ack.boundary_in_arcs = 300;
  ack.dangling_owned = {250, 260, 270};
  ack.boundary_sources = {0, 5, 999};
  return ack;
}

ShardSolveBegin SampleSolveBegin() {
  ShardSolveBegin begin;
  begin.solve_id = 77;
  begin.method = static_cast<uint32_t>(SolverMethod::kGaussSeidel);
  begin.dangling = DanglingPolicy::kSelfLoop;
  begin.alpha = 0.85;
  begin.initial = {0.25, 0.5};
  begin.teleport = {0.125, 0.875};
  return begin;
}

ShardSweepRequest SampleSweepRequest() {
  ShardSweepRequest request;
  request.solve_id = 77;
  request.sweep = 3;
  request.dangling_mass = 0.0625;
  request.has_rescale = true;
  request.rescale = 1.0 / 3.0;
  return request;
}
const std::vector<double> kSampleBoundary = {0.1, 0.2, 0.3};

ShardSweepResponse SampleSweepResponse() {
  ShardSweepResponse response;
  response.solve_id = 77;
  response.sweep = 3;
  response.dangling_partial = 0.03125;
  response.residual_partial = 1e-7;
  return response;
}
const std::vector<double> kSampleOwned = {0.4, 0.6};

/// A sweep request carrying kSampleBoundary: the coordinator's gather
/// over the identity source list.
std::vector<uint8_t> SweepRequestBytes(const ShardSweepRequest& request) {
  std::vector<NodeId> sources(kSampleBoundary.size());
  std::iota(sources.begin(), sources.end(), NodeId{0});
  std::vector<uint8_t> out;
  EncodeShardSweepRequest(request, kSampleBoundary, sources, out);
  return out;
}

/// A sweep response carrying kSampleOwned.
std::vector<uint8_t> SweepResponseBytes(const ShardSweepResponse& response) {
  std::vector<uint8_t> out;
  EncodeShardSweepResponse(response, kSampleOwned, out);
  return out;
}

Status DecodeSweepRequestStatus(std::span<const uint8_t> payload) {
  ShardSweepRequest request;
  WireScores boundary;
  return DecodeShardSweepRequest(payload, &request, &boundary);
}

Status DecodeSweepResponseStatus(std::span<const uint8_t> payload) {
  ShardSweepResponse response;
  WireScores owned;
  return DecodeShardSweepResponse(payload, &response, &owned);
}

std::vector<double> ToVector(const WireScores& scores) {
  std::vector<double> values(scores.size());
  scores.CopyTo(values);
  return values;
}

TEST(ShardWireTest, HandshakeRoundTripsEverySchemeBuildMetricCombo) {
  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (DegreeMetric metric :
         {DegreeMetric::kOutDegree, DegreeMetric::kOutStrength,
          DegreeMetric::kInDegree}) {
      ShardHandshake handshake = SampleHandshake();
      handshake.scheme = scheme;
      handshake.metric = metric;
      const std::vector<uint8_t> bytes = EncodeShardHandshake(handshake);
      // The slice-build slot carries its one value, shard-local (1).
      ASSERT_GE(bytes.size(), 16u);
      EXPECT_EQ(ReadU32(bytes.data() + 12), 1u);
      auto decoded = DecodeShardHandshake(bytes);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->shard_id, handshake.shard_id);
      EXPECT_EQ(decoded->num_shards, handshake.num_shards);
      EXPECT_EQ(decoded->scheme, scheme);
      EXPECT_EQ(decoded->graph_fingerprint, handshake.graph_fingerprint);
      EXPECT_EQ(decoded->p, handshake.p);
      EXPECT_EQ(decoded->beta, handshake.beta);
      EXPECT_EQ(decoded->metric, metric);
    }
  }
}

TEST(ShardWireTest, HandshakeKeyDoublesSurviveBitExact) {
  // The key comparison shard-side is bitwise; the codec must not launder
  // signed zero (or any other bit pattern).
  ShardHandshake handshake = SampleHandshake();
  handshake.p = -0.0;
  handshake.beta = std::numeric_limits<double>::denorm_min();
  auto decoded = DecodeShardHandshake(EncodeShardHandshake(handshake));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::signbit(decoded->p));
  EXPECT_EQ(decoded->beta, std::numeric_limits<double>::denorm_min());
}

TEST(ShardWireTest, HandshakeRejectsUnresolvedAndOutOfRangeEnums) {
  const std::vector<uint8_t> good = EncodeShardHandshake(SampleHandshake());
  {
    std::vector<uint8_t> bad = good;
    bad[8] = 9;  // scheme u32 at offset 8
    EXPECT_FALSE(DecodeShardHandshake(bad).ok());
  }
  for (uint8_t slice_mode : {uint8_t{0}, uint8_t{9}}) {
    // slice-build u32 at offset 12: only the shard-local value 1 decodes.
    std::vector<uint8_t> bad = good;
    bad[12] = slice_mode;
    auto decoded = DecodeShardHandshake(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // metric u32 at offset 40: kAuto (unresolved) must be rejected even
    // though it is a valid enum value elsewhere — the wire carries only
    // RESOLVED keys.
    std::vector<uint8_t> bad = good;
    bad[40] = static_cast<uint8_t>(DegreeMetric::kAuto);
    auto decoded = DecodeShardHandshake(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("metric"), std::string::npos);
    bad[40] = 200;
    EXPECT_FALSE(DecodeShardHandshake(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[4] = 0;  // num_shards = 0
    EXPECT_FALSE(DecodeShardHandshake(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[0] = 200;  // shard_id >= num_shards
    EXPECT_FALSE(DecodeShardHandshake(bad).ok());
  }
}

TEST(ShardWireTest, AckRoundTripsWithAndWithoutLists) {
  const ShardHandshakeAck ack = SampleAck();
  auto decoded = DecodeShardHandshakeAck(EncodeShardHandshakeAck(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_nodes, ack.num_nodes);
  EXPECT_EQ(decoded->num_arcs, ack.num_arcs);
  EXPECT_EQ(decoded->num_owned, ack.num_owned);
  EXPECT_EQ(decoded->boundary_in_arcs, ack.boundary_in_arcs);
  EXPECT_EQ(decoded->dangling_owned, ack.dangling_owned);
  EXPECT_EQ(decoded->boundary_sources, ack.boundary_sources);

  // Empty lists (a dangling-free interior shard) are legal.
  ShardHandshakeAck bare;
  bare.num_nodes = 10;
  bare.num_owned = 10;
  auto bare_decoded = DecodeShardHandshakeAck(EncodeShardHandshakeAck(bare));
  ASSERT_TRUE(bare_decoded.ok());
  EXPECT_TRUE(bare_decoded->dangling_owned.empty());
  EXPECT_TRUE(bare_decoded->boundary_sources.empty());
}

TEST(ShardWireTest, AckRejectsLyingListCounts) {
  // Counts bigger than the remaining bytes must be rejected BEFORE any
  // allocation sized from them. The dangling count is the u32 at offset
  // 32 (after four u64s); the boundary count follows the dangling ids.
  std::vector<uint8_t> payload = EncodeShardHandshakeAck(SampleAck());
  for (int b = 0; b < 4; ++b) payload[32 + b] = 0xff;
  auto decoded = DecodeShardHandshakeAck(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("count"), std::string::npos);

  payload = EncodeShardHandshakeAck(SampleAck());
  const size_t boundary_count_at = 32 + 4 + 3 * 4;
  for (int b = 0; b < 4; ++b) payload[boundary_count_at + b] = 0xff;
  EXPECT_FALSE(DecodeShardHandshakeAck(payload).ok());
}

TEST(ShardWireTest, AckNeedsMetricTrailingByteIsBackwardCompatible) {
  // needs_metric_values rides a TRAILING byte appended only when true:
  // the false encoding must stay byte-identical to the pre-cut-file
  // revision, and a decoder reading the short (old) payload must default
  // to false.
  ShardHandshakeAck ack = SampleAck();
  ack.needs_metric_values = false;
  const std::vector<uint8_t> old_bytes = EncodeShardHandshakeAck(ack);
  ack.needs_metric_values = true;
  const std::vector<uint8_t> new_bytes = EncodeShardHandshakeAck(ack);

  ASSERT_EQ(new_bytes.size(), old_bytes.size() + 1);
  EXPECT_TRUE(std::equal(old_bytes.begin(), old_bytes.end(),
                         new_bytes.begin()));
  EXPECT_EQ(new_bytes.back(), 1);

  auto old_decoded = DecodeShardHandshakeAck(old_bytes);
  ASSERT_TRUE(old_decoded.ok());
  EXPECT_FALSE(old_decoded->needs_metric_values);
  auto new_decoded = DecodeShardHandshakeAck(new_bytes);
  ASSERT_TRUE(new_decoded.ok());
  EXPECT_TRUE(new_decoded->needs_metric_values);
  EXPECT_EQ(new_decoded->boundary_sources, ack.boundary_sources);
}

TEST(ShardWireTest, AckRejectsBadNeedsMetricByte) {
  ShardHandshakeAck ack = SampleAck();
  ack.needs_metric_values = true;
  std::vector<uint8_t> payload = EncodeShardHandshakeAck(ack);
  payload.back() = 2;
  auto decoded = DecodeShardHandshakeAck(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("needs_metric_values"),
            std::string::npos);
}

TEST(ShardWireTest, SolveBeginMetricValuesAreTrailingAndBackwardCompatible) {
  // The metric vector rides a trailing score list appended only when
  // non-empty — same compatibility contract as the ack's trailing byte.
  ShardSolveBegin begin = SampleSolveBegin();
  const std::vector<uint8_t> old_bytes = EncodeShardSolveBegin(begin);
  begin.metric_values = {1.0, 2.5, 0x1.fffffffffffffp+1, -0.0};
  const std::vector<uint8_t> new_bytes = EncodeShardSolveBegin(begin);

  ASSERT_GT(new_bytes.size(), old_bytes.size());
  EXPECT_TRUE(std::equal(old_bytes.begin(), old_bytes.end(),
                         new_bytes.begin()));

  auto old_decoded = DecodeShardSolveBegin(old_bytes);
  ASSERT_TRUE(old_decoded.ok());
  EXPECT_TRUE(old_decoded->metric_values.empty());
  auto new_decoded = DecodeShardSolveBegin(new_bytes);
  ASSERT_TRUE(new_decoded.ok()) << new_decoded.status().ToString();
  EXPECT_EQ(new_decoded->metric_values, begin.metric_values);  // bit-exact
}

TEST(ShardWireTest, SolveBeginRejectsPresentButEmptyMetricSection) {
  // An empty trailing list would be indistinguishable from its own
  // absence (and one count longer); the codec forbids encoding it by
  // construction and rejects it on decode.
  std::vector<uint8_t> payload = EncodeShardSolveBegin(SampleSolveBegin());
  payload.insert(payload.end(), {0, 0, 0, 0});  // score list, count 0
  auto decoded = DecodeShardSolveBegin(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("metric section present"),
            std::string::npos);
}

TEST(ShardWireTest, SolveBeginRejectsTruncatedMetricSection) {
  ShardSolveBegin begin = SampleSolveBegin();
  begin.metric_values = {1.0, 2.0, 3.0};
  const std::vector<uint8_t> full = EncodeShardSolveBegin(begin);
  const std::vector<uint8_t> base = EncodeShardSolveBegin(SampleSolveBegin());
  for (size_t len = base.size() + 1; len < full.size(); ++len) {
    std::vector<uint8_t> cut(full.begin(), full.begin() + len);
    EXPECT_FALSE(DecodeShardSolveBegin(cut).ok()) << "length " << len;
  }
}

TEST(ShardWireTest, SolveBeginRoundTripsBothMethodsEveryPolicy) {
  for (SolverMethod method :
       {SolverMethod::kPower, SolverMethod::kGaussSeidel}) {
    for (DanglingPolicy dangling :
         {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
          DanglingPolicy::kRenormalize}) {
      ShardSolveBegin begin = SampleSolveBegin();
      begin.method = static_cast<uint32_t>(method);
      begin.dangling = dangling;
      auto decoded = DecodeShardSolveBegin(EncodeShardSolveBegin(begin));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->solve_id, begin.solve_id);
      EXPECT_EQ(decoded->method, begin.method);
      EXPECT_EQ(decoded->dangling, dangling);
      EXPECT_EQ(decoded->alpha, begin.alpha);
      EXPECT_EQ(decoded->initial, begin.initial);
      EXPECT_EQ(decoded->teleport, begin.teleport);
    }
  }
}

TEST(ShardWireTest, SolveBeginRejectsNonBlockMethodsAndBadPolicy) {
  {
    // kForwardPush is a valid SolverMethod but has no distributed sweep;
    // the codec rejects it at decode, not deep in the worker.
    ShardSolveBegin begin = SampleSolveBegin();
    begin.method = static_cast<uint32_t>(SolverMethod::kForwardPush);
    EXPECT_FALSE(DecodeShardSolveBegin(EncodeShardSolveBegin(begin)).ok());
    begin.method = 99;
    EXPECT_FALSE(DecodeShardSolveBegin(EncodeShardSolveBegin(begin)).ok());
  }
  {
    std::vector<uint8_t> bad = EncodeShardSolveBegin(SampleSolveBegin());
    bad[12] = 9;  // dangling u32 at offset 12
    EXPECT_FALSE(DecodeShardSolveBegin(bad).ok());
  }
  {
    // initial/teleport slice lengths must agree.
    ShardSolveBegin begin = SampleSolveBegin();
    begin.teleport.push_back(0.0);
    EXPECT_FALSE(DecodeShardSolveBegin(EncodeShardSolveBegin(begin)).ok());
  }
}

TEST(ShardWireTest, SweepRequestRoundTripsWithAndWithoutRescale) {
  for (bool has_rescale : {false, true}) {
    ShardSweepRequest request = SampleSweepRequest();
    request.has_rescale = has_rescale;
    const std::vector<uint8_t> bytes = SweepRequestBytes(request);
    ShardSweepRequest decoded;
    WireScores boundary;
    const Status status = DecodeShardSweepRequest(bytes, &decoded, &boundary);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded.solve_id, request.solve_id);
    EXPECT_EQ(decoded.sweep, request.sweep);
    EXPECT_EQ(decoded.dangling_mass, request.dangling_mass);
    EXPECT_EQ(decoded.has_rescale, has_rescale);
    EXPECT_EQ(decoded.rescale, request.rescale);
    EXPECT_EQ(ToVector(boundary), kSampleBoundary);
  }
}

TEST(ShardWireTest, SweepFramesRejectZeroSweepAndBadRescaleByte) {
  {
    ShardSweepRequest request = SampleSweepRequest();
    request.sweep = 0;  // sweeps are 1-based
    EXPECT_FALSE(DecodeSweepRequestStatus(SweepRequestBytes(request)).ok());
  }
  {
    std::vector<uint8_t> bad = SweepRequestBytes(SampleSweepRequest());
    bad[20] = 2;  // has_rescale byte at offset 20: only 0/1 are booleans
    EXPECT_FALSE(DecodeSweepRequestStatus(bad).ok());
  }
  {
    ShardSweepResponse response = SampleSweepResponse();
    response.sweep = 0;
    EXPECT_FALSE(
        DecodeSweepResponseStatus(SweepResponseBytes(response)).ok());
  }
}

TEST(ShardWireTest, SweepFramesRejectLyingScoreCounts) {
  std::vector<uint8_t> request = SweepRequestBytes(SampleSweepRequest());
  // boundary count u32 at offset 8 + 4 + 8 + 1 + 8 = 29.
  for (int b = 0; b < 4; ++b) request[29 + b] = 0xff;
  EXPECT_FALSE(DecodeSweepRequestStatus(request).ok());

  std::vector<uint8_t> response = SweepResponseBytes(SampleSweepResponse());
  // owned count u32 at offset 8 + 4 = 12.
  for (int b = 0; b < 4; ++b) response[12 + b] = 0xff;
  EXPECT_FALSE(DecodeSweepResponseStatus(response).ok());
}

TEST(ShardWireTest, SweepResponseAndSolveEndRoundTrip) {
  const ShardSweepResponse response = SampleSweepResponse();
  const std::vector<uint8_t> bytes = SweepResponseBytes(response);
  ShardSweepResponse decoded;
  WireScores owned;
  const Status status = DecodeShardSweepResponse(bytes, &decoded, &owned);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.solve_id, response.solve_id);
  EXPECT_EQ(decoded.sweep, response.sweep);
  EXPECT_EQ(ToVector(owned), kSampleOwned);
  EXPECT_EQ(decoded.dangling_partial, response.dangling_partial);
  EXPECT_EQ(decoded.residual_partial, response.residual_partial);

  ShardSolveEnd end;
  end.solve_id = 0xabcdef0123456789ull;
  auto end_decoded = DecodeShardSolveEnd(EncodeShardSolveEnd(end));
  ASSERT_TRUE(end_decoded.ok());
  EXPECT_EQ(end_decoded->solve_id, end.solve_id);
}

TEST(ShardWireTest, EveryDecoderRejectsEveryTruncationOffset) {
  const std::vector<uint8_t> payloads[] = {
      EncodeShardHandshake(SampleHandshake()),
      EncodeShardHandshakeAck(SampleAck()),
      EncodeShardSolveBegin(SampleSolveBegin()),
      SweepRequestBytes(SampleSweepRequest()),
      SweepResponseBytes(SampleSweepResponse()),
      EncodeShardSolveEnd(ShardSolveEnd{77}),
  };
  for (size_t which = 0; which < 6; ++which) {
    const std::vector<uint8_t>& payload = payloads[which];
    for (size_t len = 0; len < payload.size(); ++len) {
      SCOPED_TRACE("payload " + std::to_string(which) + " truncated to " +
                   std::to_string(len));
      const std::span<const uint8_t> cut(payload.data(), len);
      bool ok = false;
      switch (which) {
        case 0: ok = DecodeShardHandshake(cut).ok(); break;
        case 1: ok = DecodeShardHandshakeAck(cut).ok(); break;
        case 2: ok = DecodeShardSolveBegin(cut).ok(); break;
        case 3: ok = DecodeSweepRequestStatus(cut).ok(); break;
        case 4: ok = DecodeSweepResponseStatus(cut).ok(); break;
        case 5: ok = DecodeShardSolveEnd(cut).ok(); break;
      }
      EXPECT_FALSE(ok);
    }
  }
}

TEST(ShardWireTest, EveryDecoderRejectsTrailingGarbage) {
  {
    std::vector<uint8_t> padded = EncodeShardHandshake(SampleHandshake());
    padded.push_back(0);
    EXPECT_FALSE(DecodeShardHandshake(padded).ok());
  }
  {
    std::vector<uint8_t> padded = EncodeShardHandshakeAck(SampleAck());
    padded.push_back(0);
    EXPECT_FALSE(DecodeShardHandshakeAck(padded).ok());
  }
  {
    std::vector<uint8_t> padded = EncodeShardSolveBegin(SampleSolveBegin());
    padded.push_back(0);
    EXPECT_FALSE(DecodeShardSolveBegin(padded).ok());
  }
  {
    std::vector<uint8_t> padded = SweepRequestBytes(SampleSweepRequest());
    padded.push_back(0);
    EXPECT_FALSE(DecodeSweepRequestStatus(padded).ok());
  }
  {
    std::vector<uint8_t> padded = SweepResponseBytes(SampleSweepResponse());
    padded.push_back(0);
    EXPECT_FALSE(DecodeSweepResponseStatus(padded).ok());
  }
  {
    std::vector<uint8_t> padded = EncodeShardSolveEnd(ShardSolveEnd{1});
    padded.push_back(0);
    EXPECT_FALSE(DecodeShardSolveEnd(padded).ok());
  }
}

TEST(ShardWireTest, FrameHeaderAcceptsAllV2TypesAndStillRejectsBeyond) {
  for (FrameType type :
       {FrameType::kShardHandshake, FrameType::kShardHandshakeAck,
        FrameType::kSolveBegin, FrameType::kSweepRequest,
        FrameType::kSweepResponse, FrameType::kSolveEnd}) {
    const std::vector<uint8_t> frame =
        EncodeFrame(type, 9, std::vector<uint8_t>{});
    auto header = DecodeFrameHeader(frame);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_EQ(header->type, type);
  }
  // One past the v2 range is still an unknown type.
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kSolveEnd, 9, std::vector<uint8_t>{});
  frame[10] = 13;
  EXPECT_FALSE(DecodeFrameHeader(frame).ok());
}

TEST(ShardWireTest, RandomCorruptionNeverCrashesV2Decoders) {
  // The same 2000-trial byte-flip fuzz the v1 codecs get, cycled across
  // all six v2 payloads: reject or decode, never crash or over-read.
  Rng rng(20260810);
  const std::vector<uint8_t> payloads[] = {
      EncodeShardHandshake(SampleHandshake()),
      EncodeShardHandshakeAck(SampleAck()),
      EncodeShardSolveBegin(SampleSolveBegin()),
      SweepRequestBytes(SampleSweepRequest()),
      SweepResponseBytes(SampleSweepResponse()),
      EncodeShardSolveEnd(ShardSolveEnd{77}),
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t which = static_cast<size_t>(trial) % 6;
    std::vector<uint8_t> corrupted = payloads[which];
    const int flips = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < flips; ++f) {
      corrupted[rng.Next() % corrupted.size()] ^=
          static_cast<uint8_t>(1 + rng.Next() % 255);
    }
    switch (which) {
      case 0: (void)DecodeShardHandshake(corrupted); break;
      case 1: (void)DecodeShardHandshakeAck(corrupted); break;
      case 2: (void)DecodeShardSolveBegin(corrupted); break;
      case 3: (void)DecodeSweepRequestStatus(corrupted); break;
      case 4: (void)DecodeSweepResponseStatus(corrupted); break;
      case 5: (void)DecodeShardSolveEnd(corrupted); break;
    }
  }
}

// --- v1 backward-compat pin ---
//
// Adding the v2 frame types must leave every v1 byte layout untouched:
// these goldens were captured from the encoder BEFORE the v2 vocabulary
// landed (same kWireVersion). If any of them fails, a new client can no
// longer talk to an old server.

TEST(ShardWireTest, V1FramesStillEncodeByteIdentically) {
  WireRankRequest wire;
  wire.deadline_ms = 1500;
  wire.request.p = 0.5;
  wire.request.beta = 0.25;
  wire.request.metric = DegreeMetric::kOutDegree;
  wire.request.alpha = 0.85;
  wire.request.tolerance = 1e-10;
  wire.request.max_iterations = 100;
  wire.request.dangling = DanglingPolicy::kSelfLoop;
  wire.request.method = SolverMethod::kGaussSeidel;
  wire.request.push_epsilon = 1e-6;
  wire.request.seeds = {3, 17};
  wire.request.warm_start_tag = "pin";
  const std::vector<uint8_t> request_golden = {
      0x5b, 0x00, 0x00, 0x00, 0x44, 0x32, 0x50, 0x52, 0x01, 0x00, 0x01,
      0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0xdc, 0x05,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,
      0x01, 0x00, 0x00, 0x00, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xeb,
      0x3f, 0xbb, 0xbd, 0xd7, 0xd9, 0xdf, 0x7c, 0xdb, 0x3d, 0x64, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x8d,
      0xed, 0xb5, 0xa0, 0xf7, 0xc6, 0xb0, 0x3e, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00,
      0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x70, 0x69,
      0x6e};
  EXPECT_EQ(EncodeFrame(FrameType::kRankRequest, 0x1122334455667788ull,
                        EncodeRankRequest(wire)),
            request_golden);

  const std::vector<uint8_t> status_golden = {
      0x02, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x6e, 0x6f, 0x20, 0x73, 0x75, 0x63, 0x68, 0x20, 0x6e, 0x6f,
      0x64, 0x65};
  EXPECT_EQ(EncodeStatusPayload(Status::NotFound("no such node")),
            status_golden);

  const std::vector<uint8_t> info_golden = {
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x54, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(EncodeServerInfo(ServerInfo{42, 84, 2, 4}), info_golden);

  // And the goldens decode back to the exact originals: old bytes keep
  // meaning the same thing.
  auto request_header = DecodeFrameHeader(request_golden);
  ASSERT_TRUE(request_header.ok());
  EXPECT_EQ(request_header->request_id, 0x1122334455667788ull);
  auto decoded_request = DecodeRankRequest(
      {request_golden.data() + kFrameHeaderBytes,
       request_golden.size() - kFrameHeaderBytes});
  ASSERT_TRUE(decoded_request.ok());
  ExpectRequestsEqual(decoded_request.value(), wire);
}

}  // namespace
}  // namespace d2pr
