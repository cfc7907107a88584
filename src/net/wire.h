// Wire protocol of the d2pr network front door: length-prefixed binary
// frames carrying the RankRequest / RankResponse vocabulary over a byte
// stream.
//
// Every frame is
//
//   [0..4)   payload_len  u32   bytes of payload following the header
//   [4..8)   magic        u32   kWireMagic ("D2PR" little-endian)
//   [8..10)  version      u16   kWireVersion
//   [10..12) type         u16   FrameType
//   [12..20) request_id   u64   caller-chosen correlation id
//   [20..)   payload      payload_len bytes, layout per FrameType
//
// all little-endian (the same convention as the persistent store formats
// in common/binary_io.h). The fixed 20-byte header is readable before any
// payload byte, so a receiver can validate magic / version / type /
// bounded length and drop a garbage connection without buffering an
// attacker-chosen amount of data: payload_len above kMaxPayloadBytes is a
// protocol error, not an allocation.
//
// Two error channels are deliberately distinct:
//
//   * Framing errors (bad magic, unknown version or type, oversize
//     length, truncation) mean the byte stream itself is broken — the
//     peer is not speaking this protocol — and the connection is closed.
//   * Payload decode errors (a well-formed frame whose body does not
//     parse) and application errors (a solve that fails) travel BACK on
//     the stream as kStatus frames carrying the d2pr Status code and
//     message, echoing the request id; the connection stays usable.
//
// kUnavailable is its own frame type, not just a status payload, so an
// overload shed is distinguishable at the framing layer: a load balancer
// can count sheds without decoding status bodies.
//
// Codecs are pure functions over byte vectors — no sockets here — so the
// fuzz suite (tests/net_wire_test.cc) can truncate and corrupt at every
// boundary without a server in the loop.
//
// Top-k extension (same kWireVersion, by construction backward
// compatible): a RankRequest payload may carry one trailing u32 top_k,
// appended only when nonzero — so exact-serving requests stay
// byte-identical to the pre-top-k format and old frames decode with
// top_k = 0. A RankResponse sets flag bit 5 to gate a trailing truncated
// section (u64 entry count; per entry u32 node + f64 score + u8
// certified; then f64 uncertainty_gap); without the bit the layout is
// unchanged, so pre-top-k responses decode identically.

#ifndef D2PR_NET_WIRE_H_
#define D2PR_NET_WIRE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "api/rank_request.h"
#include "common/result.h"

namespace d2pr {

/// "D2PR" read as a little-endian u32.
inline constexpr uint32_t kWireMagic = 0x52503244u;
inline constexpr uint16_t kWireVersion = 1;
/// Bytes before the payload: len + magic + version + type + request_id.
inline constexpr size_t kFrameHeaderBytes = 20;
/// Upper bound a receiver enforces before allocating a payload buffer.
/// 64 MiB holds a ~8M-score response; anything larger is a corrupt or
/// hostile length field.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// \brief What a frame's payload contains.
///
/// Types 7..12 are the v2 distributed-block-solve vocabulary
/// (net/shard_wire.h): coordinator-to-shard handshake, solve control, and
/// per-sweep boundary exchange. They ride the same kWireVersion — adding
/// frame types is backward compatible because every v1 frame's byte
/// layout is untouched; an old peer receiving a v2 type rejects it as an
/// unknown type, exactly as it rejects garbage today.
enum class FrameType : uint16_t {
  kRankRequest = 1,   ///< client -> server: WireRankRequest
  kRankResponse = 2,  ///< server -> client: RankResponse
  kStatus = 3,        ///< server -> client: Status (code + message)
  kUnavailable = 4,   ///< server -> client: Status; load was shed
  kInfoRequest = 5,   ///< client -> server: empty payload
  kInfoResponse = 6,  ///< server -> client: ServerInfo
  kShardHandshake = 7,     ///< coordinator -> shard: ShardHandshake
  kShardHandshakeAck = 8,  ///< shard -> coordinator: ShardHandshakeAck
  kSolveBegin = 9,         ///< coordinator -> shard: ShardSolveBegin
  kSweepRequest = 10,      ///< coordinator -> shard: ShardSweepRequest
  kSweepResponse = 11,     ///< shard -> coordinator: ShardSweepResponse
  kSolveEnd = 12,          ///< coordinator -> shard: ShardSolveEnd
};

/// \brief Decoded fixed header of one frame (magic/version validated and
/// dropped).
struct FrameHeader {
  uint32_t payload_len = 0;
  FrameType type = FrameType::kStatus;
  uint64_t request_id = 0;
};

/// \brief One RankRequest plus its transport envelope.
struct WireRankRequest {
  RankRequest request;
  /// Relative deadline in milliseconds; 0 = no deadline. The server
  /// stamps an absolute deadline at admission and enforces it before the
  /// solve and again at response delivery (see net/server.h).
  uint64_t deadline_ms = 0;
};

/// \brief What a server tells clients about itself (kInfoResponse).
struct ServerInfo {
  uint64_t num_nodes = 0;
  uint64_t num_arcs = 0;
  uint64_t num_shards = 1;
  uint64_t num_threads = 1;
};

/// The fixed header of one frame, as written on the stream.
using FrameHeaderBytes = std::array<uint8_t, kFrameHeaderBytes>;

/// \brief Encodes the fixed header of a frame carrying `payload_len`
/// payload bytes. D2PR_CHECKs that the length fits kMaxPayloadBytes —
/// encoders below cannot produce an oversize payload from valid inputs.
///
/// Score-carrying frames never have their payload copied: a blocking
/// sender writes these bytes and the payload with one gathered send
/// (Socket::SendAll(head, body)), and RpcServer builds its queued rank
/// replies with BuildFrame.
FrameHeaderBytes EncodeFrameHeader(FrameType type, uint64_t request_id,
                                   size_t payload_len);

/// \brief Builds a complete frame in one vector: `append_payload(out)`
/// appends the payload after reserved header room, then the header is
/// written in front — the payload is encoded in place, never copied.
template <typename AppendPayload>
std::vector<uint8_t> BuildFrame(FrameType type, uint64_t request_id,
                                AppendPayload&& append_payload) {
  std::vector<uint8_t> frame(kFrameHeaderBytes);
  append_payload(frame);
  const FrameHeaderBytes header =
      EncodeFrameHeader(type, request_id, frame.size() - kFrameHeaderBytes);
  std::copy(header.begin(), header.end(), frame.begin());
  return frame;
}

/// \brief A complete frame (header + a copy of `payload`) in one vector —
/// for small replies, and for tests and load generators that pre-build
/// raw frames.
std::vector<uint8_t> EncodeFrame(FrameType type, uint64_t request_id,
                                 std::span<const uint8_t> payload);

/// \brief Validates and decodes the fixed header at `bytes` (which must
/// hold at least kFrameHeaderBytes). InvalidArgument on short input, bad
/// magic, version skew, unknown type, or payload_len > kMaxPayloadBytes —
/// all of which mean the stream is not speaking this protocol.
Result<FrameHeader> DecodeFrameHeader(std::span<const uint8_t> bytes);

// --- payload codecs (payload bytes only, no frame header) ---

std::vector<uint8_t> EncodeRankRequest(const WireRankRequest& request);
Result<WireRankRequest> DecodeRankRequest(std::span<const uint8_t> payload);

/// The scores section (u64 count + f64 values) crosses the codec as one
/// bulk copy each way; tests/wire_golden_test.cc pins its bytes.
std::vector<uint8_t> EncodeRankResponse(const RankResponse& response);
Result<RankResponse> DecodeRankResponse(std::span<const uint8_t> payload);

/// Status payloads carry code + message; OK is legal (unused in
/// practice — successful solves travel as kRankResponse). The decode
/// return value reports payload malformation; the decoded status itself
/// lands in `*decoded` (out-parameter because Result<Status> would make
/// the carried error and the carried value the same type).
std::vector<uint8_t> EncodeStatusPayload(const Status& status);
Status DecodeStatusPayload(std::span<const uint8_t> payload, Status* decoded);

std::vector<uint8_t> EncodeServerInfo(const ServerInfo& info);
Result<ServerInfo> DecodeServerInfo(std::span<const uint8_t> payload);

/// The append form of EncodeRankResponse — the same bytes, appended to
/// `out` — so a rank reply is encoded straight into its BuildFrame buffer.
void AppendRankResponse(std::vector<uint8_t>& out,
                        const RankResponse& response);

}  // namespace d2pr

#endif  // D2PR_NET_WIRE_H_
