// Byte-pinned v1 and v2 frames: every encoder reproduces its golden
// fixture (wire_golden_fixtures.h) byte for byte, and decoding a fixture
// round-trips bitwise — negative zeros, NaN payloads and subnormals
// included. The fixtures predate the bulk-copy list codecs, so these
// tests are what "same bytes on the wire" means.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "net/shard_wire.h"
#include "net/wire.h"
#include "wire_golden_fixtures.h"

namespace d2pr {
namespace {

using namespace golden;  // NOLINT(build/namespaces)

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

::testing::AssertionResult SameBits(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  if (!a.empty() && std::memcmp(a.data(), b.data(), 8 * a.size()) != 0) {
    return ::testing::AssertionFailure() << "values differ in some bit";
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameResponse(const RankResponse& got, const RankResponse& want) {
  EXPECT_TRUE(SameBits(got.scores, want.scores));
  ASSERT_EQ(got.top.size(), want.top.size());
  for (size_t i = 0; i < got.top.size(); ++i) {
    EXPECT_EQ(got.top[i].node, want.top[i].node);
    EXPECT_TRUE(SameBits(got.top[i].score, want.top[i].score)) << i;
    EXPECT_EQ(got.top[i].certified, want.top[i].certified);
  }
  EXPECT_TRUE(SameBits(got.uncertainty_gap, want.uncertainty_gap));
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.method, want.method);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.pushes, want.pushes);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_TRUE(SameBits(got.residual, want.residual));
  EXPECT_EQ(got.transition_cache_hit, want.transition_cache_hit);
  EXPECT_EQ(got.transition_store_hit, want.transition_store_hit);
  EXPECT_EQ(got.warm_start_hit, want.warm_start_hit);
  EXPECT_EQ(got.served_partitioned, want.served_partitioned);
}

TEST(WireGoldenTest, FullScoreResponseIsByteIdentical) {
  EXPECT_EQ(EncodeRankResponse(GoldenFullResponse()), kFullResponseGolden);
  auto decoded = DecodeRankResponse(kFullResponseGolden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameResponse(*decoded, GoldenFullResponse());
  EXPECT_EQ(EncodeRankResponse(*decoded), kFullResponseGolden);
}

TEST(WireGoldenTest, TruncatedTopKResponseIsByteIdentical) {
  EXPECT_EQ(EncodeRankResponse(GoldenTopKResponse()), kTopKResponseGolden);
  auto decoded = DecodeRankResponse(kTopKResponseGolden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameResponse(*decoded, GoldenTopKResponse());
  EXPECT_EQ(EncodeRankResponse(*decoded), kTopKResponseGolden);
}

TEST(WireGoldenTest, HandshakeAckWithBothListsAndTheMetricByte) {
  EXPECT_EQ(EncodeShardHandshakeAck(GoldenAck()), kAckGolden);
  auto decoded = DecodeShardHandshakeAck(kAckGolden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ShardHandshakeAck want = GoldenAck();
  EXPECT_EQ(decoded->num_nodes, want.num_nodes);
  EXPECT_EQ(decoded->num_arcs, want.num_arcs);
  EXPECT_EQ(decoded->num_owned, want.num_owned);
  EXPECT_EQ(decoded->boundary_in_arcs, want.boundary_in_arcs);
  EXPECT_EQ(decoded->dangling_owned, want.dangling_owned);
  EXPECT_EQ(decoded->boundary_sources, want.boundary_sources);
  EXPECT_TRUE(decoded->needs_metric_values);
  EXPECT_EQ(EncodeShardHandshakeAck(*decoded), kAckGolden);
}

TEST(WireGoldenTest, SolveBeginWithTheMetricSection) {
  EXPECT_EQ(EncodeShardSolveBegin(GoldenSolveBegin()), kSolveBeginGolden);
  auto decoded = DecodeShardSolveBegin(kSolveBeginGolden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ShardSolveBegin want = GoldenSolveBegin();
  EXPECT_EQ(decoded->solve_id, want.solve_id);
  EXPECT_EQ(decoded->method, want.method);
  EXPECT_EQ(decoded->dangling, want.dangling);
  EXPECT_TRUE(SameBits(decoded->alpha, want.alpha));
  EXPECT_TRUE(SameBits(decoded->initial, want.initial));
  EXPECT_TRUE(SameBits(decoded->teleport, want.teleport));
  EXPECT_TRUE(SameBits(decoded->metric_values, want.metric_values));
  EXPECT_EQ(EncodeShardSolveBegin(*decoded), kSolveBeginGolden);
}

TEST(WireGoldenTest, SweepRequestWithARescale) {
  const ShardSweepRequest want = GoldenSweepRequest();
  const std::vector<double> want_boundary = GoldenBoundary();

  // The coordinator gathers the boundary out of a full iterate.
  const std::vector<double> iterate = {9.0, kSubnormal, 9.0,  kNegZero,
                                       0.75, kNanPayload, 9.0};
  const std::vector<NodeId> sources = {3, 5, 1, 4};
  std::vector<uint8_t> gathered = {0xaa, 0xbb};  // replaced, not appended
  EncodeShardSweepRequest(want, iterate, sources, gathered);
  EXPECT_EQ(gathered, kSweepRequestGolden);

  // The worker leaves the list in the payload until it is copied.
  ShardSweepRequest decoded;
  WireScores boundary;
  ASSERT_TRUE(
      DecodeShardSweepRequest(kSweepRequestGolden, &decoded, &boundary).ok());
  EXPECT_EQ(decoded.solve_id, want.solve_id);
  EXPECT_EQ(decoded.sweep, want.sweep);
  EXPECT_TRUE(SameBits(decoded.dangling_mass, want.dangling_mass));
  EXPECT_TRUE(decoded.has_rescale);
  EXPECT_TRUE(SameBits(decoded.rescale, want.rescale));
  ASSERT_EQ(boundary.size(), want_boundary.size());
  std::vector<double> copied(boundary.size());
  boundary.CopyTo(copied);
  EXPECT_TRUE(SameBits(copied, want_boundary));
  for (size_t i = 0; i < boundary.size(); ++i) {
    EXPECT_TRUE(SameBits(boundary[i], want_boundary[i])) << i;
  }

  // Re-encoding the decoded request (identity gather) round-trips.
  const std::vector<NodeId> identity = {0, 1, 2, 3};
  std::vector<uint8_t> again;
  EncodeShardSweepRequest(decoded, copied, identity, again);
  EXPECT_EQ(again, kSweepRequestGolden);
}

TEST(WireGoldenTest, SweepResponse) {
  const ShardSweepResponse want = GoldenSweepResponse();
  const std::vector<double> want_owned = GoldenOwned();
  std::vector<uint8_t> encoded(1000, 0xcc);  // replaced, not appended
  EncodeShardSweepResponse(want, want_owned, encoded);
  EXPECT_EQ(encoded, kSweepResponseGolden);

  ShardSweepResponse decoded;
  WireScores owned;
  ASSERT_TRUE(
      DecodeShardSweepResponse(kSweepResponseGolden, &decoded, &owned).ok());
  EXPECT_EQ(decoded.solve_id, want.solve_id);
  EXPECT_EQ(decoded.sweep, want.sweep);
  EXPECT_TRUE(SameBits(decoded.dangling_partial, want.dangling_partial));
  EXPECT_TRUE(SameBits(decoded.residual_partial, want.residual_partial));
  ASSERT_EQ(owned.size(), want_owned.size());
  std::vector<double> copied(owned.size());
  owned.CopyTo(copied);
  EXPECT_TRUE(SameBits(copied, want_owned));
  for (size_t i = 0; i < owned.size(); ++i) {
    EXPECT_TRUE(SameBits(owned[i], want_owned[i])) << i;
  }

  std::vector<uint8_t> again;
  EncodeShardSweepResponse(decoded, copied, again);
  EXPECT_EQ(again, kSweepResponseGolden);
}

TEST(WireGoldenTest, EveryFramingPathWritesTheSameFrame) {
  std::vector<uint8_t> payload;
  EncodeShardSweepResponse(GoldenSweepResponse(), GoldenOwned(), payload);
  EXPECT_EQ(EncodeFrame(FrameType::kSweepResponse, kGoldenRequestId, payload),
            kSweepResponseFrameGolden);
  EXPECT_EQ(BuildFrame(FrameType::kSweepResponse, kGoldenRequestId,
                       [&](std::vector<uint8_t>& out) {
                         AppendArray(out, std::span<const uint8_t>(payload));
                       }),
            kSweepResponseFrameGolden);
  // The gathered send writes the header, then the untouched payload.
  const FrameHeaderBytes header = EncodeFrameHeader(
      FrameType::kSweepResponse, kGoldenRequestId, payload.size());
  std::vector<uint8_t> gathered(header.begin(), header.end());
  gathered.insert(gathered.end(), payload.begin(), payload.end());
  EXPECT_EQ(gathered, kSweepResponseFrameGolden);
}

}  // namespace
}  // namespace d2pr
