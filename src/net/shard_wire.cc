#include "net/shard_wire.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "graph/types.h"
#include "net/wire_internal.h"

namespace d2pr {

namespace {

using wire_internal::Cursor;
using wire_internal::Truncated;

// The handshake's u32 at payload offset 12 names how the shard builds its
// transition slices. Workers build them shard-locally only, so the slot
// holds that one value and the decoder rejects any other.
constexpr uint32_t kSliceModeShardLocal = 1;

// Node-id lists travel as u32 counts + u32 ids; score slices as u32
// counts + f64 values, each list one bulk copy. Counts are checked
// against the bytes actually remaining BEFORE any allocation, so a lying
// count is an InvalidArgument, never an allocation.

void AppendNodeList(std::vector<uint8_t>& out, std::span<const NodeId> ids) {
  AppendU32(out, static_cast<uint32_t>(ids.size()));
  AppendArray(out, ids);
}

/// Reads a list's u32 count and views its `element_bytes`-wide elements
/// in place.
Status ReadListBytes(Cursor& cursor, const char* what, size_t element_bytes,
                     std::span<const uint8_t>* bytes) {
  uint32_t count = 0;
  if (!cursor.ReadU32(&count)) return Truncated(what);
  if (count > cursor.remaining() / element_bytes) {
    return Status::InvalidArgument(
        StrCat(what, " count ", count, " exceeds payload"));
  }
  if (!cursor.ReadBytes(uint64_t{count} * element_bytes, bytes)) {
    return Truncated(what);
  }
  return Status::OK();
}

Status ReadNodeList(Cursor& cursor, const char* what,
                    std::vector<NodeId>* ids) {
  std::span<const uint8_t> bytes;
  D2PR_RETURN_NOT_OK(ReadListBytes(cursor, what, sizeof(NodeId), &bytes));
  ids->resize(bytes.size() / sizeof(NodeId));
  ReadArray(bytes.data(), std::span<NodeId>(*ids));
  return Status::OK();
}

void AppendScoreList(std::vector<uint8_t>& out,
                     std::span<const double> values) {
  AppendU32(out, static_cast<uint32_t>(values.size()));
  AppendArray(out, values);
}

Status ReadScoreView(Cursor& cursor, const char* what, WireScores* values) {
  std::span<const uint8_t> bytes;
  D2PR_RETURN_NOT_OK(ReadListBytes(cursor, what, sizeof(double), &bytes));
  *values = WireScores(bytes);
  return Status::OK();
}

Status ReadScoreList(Cursor& cursor, const char* what,
                     std::vector<double>* values) {
  WireScores scores;
  D2PR_RETURN_NOT_OK(ReadScoreView(cursor, what, &scores));
  values->resize(scores.size());
  scores.CopyTo(*values);
  return Status::OK();
}

Status RejectTrailing(const Cursor& cursor, const char* what) {
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument(
        StrCat(what, " payload has ", cursor.remaining(), " trailing bytes"));
  }
  return Status::OK();
}

}  // namespace

void WireScores::CopyTo(std::span<double> out) const {
  D2PR_CHECK(out.size() == size()) << "WireScores::CopyTo size mismatch";
  ReadArray(bytes_.data(), out);
}

// --- ShardHandshake ---

std::vector<uint8_t> EncodeShardHandshake(const ShardHandshake& handshake) {
  std::vector<uint8_t> out;
  AppendU32(out, handshake.shard_id);
  AppendU32(out, handshake.num_shards);
  AppendU32(out, static_cast<uint32_t>(handshake.scheme));
  AppendU32(out, kSliceModeShardLocal);
  AppendU64(out, handshake.graph_fingerprint);
  AppendF64(out, handshake.p);
  AppendF64(out, handshake.beta);
  AppendU32(out, static_cast<uint32_t>(handshake.metric));
  return out;
}

Result<ShardHandshake> DecodeShardHandshake(std::span<const uint8_t> payload) {
  Cursor cursor(payload);
  ShardHandshake h;
  uint32_t scheme = 0;
  uint32_t slice_mode = 0;
  uint32_t metric = 0;
  if (!cursor.ReadU32(&h.shard_id) || !cursor.ReadU32(&h.num_shards) ||
      !cursor.ReadU32(&scheme) || !cursor.ReadU32(&slice_mode) ||
      !cursor.ReadU64(&h.graph_fingerprint) || !cursor.ReadF64(&h.p) ||
      !cursor.ReadF64(&h.beta) || !cursor.ReadU32(&metric)) {
    return Truncated("ShardHandshake");
  }
  if (scheme > static_cast<uint32_t>(PartitionScheme::kHash)) {
    return Status::InvalidArgument(StrCat("bad partition scheme ", scheme));
  }
  if (slice_mode != kSliceModeShardLocal) {
    return Status::InvalidArgument(StrCat("bad slice build ", slice_mode));
  }
  // The wire carries a RESOLVED transition key; kAuto means the
  // coordinator never normalized its config against the graph, and two
  // processes could silently resolve it differently.
  if (metric == static_cast<uint32_t>(DegreeMetric::kAuto) ||
      metric > static_cast<uint32_t>(DegreeMetric::kInDegree)) {
    return Status::InvalidArgument(StrCat("bad degree metric ", metric));
  }
  if (h.num_shards == 0) {
    return Status::InvalidArgument("handshake num_shards is zero");
  }
  if (h.shard_id >= h.num_shards) {
    return Status::InvalidArgument(StrCat("handshake shard_id ", h.shard_id,
                                          " not below num_shards ",
                                          h.num_shards));
  }
  if (Status trailing = RejectTrailing(cursor, "ShardHandshake");
      !trailing.ok()) {
    return trailing;
  }
  h.scheme = static_cast<PartitionScheme>(scheme);
  h.metric = static_cast<DegreeMetric>(metric);
  return h;
}

// --- ShardHandshakeAck ---

std::vector<uint8_t> EncodeShardHandshakeAck(const ShardHandshakeAck& ack) {
  std::vector<uint8_t> out;
  AppendU64(out, ack.num_nodes);
  AppendU64(out, ack.num_arcs);
  AppendU64(out, ack.num_owned);
  AppendU64(out, ack.boundary_in_arcs);
  AppendNodeList(out, ack.dangling_owned);
  AppendNodeList(out, ack.boundary_sources);
  // Trailing section, appended only when set: keeps the false encoding
  // byte-identical to the previous revision.
  if (ack.needs_metric_values) out.push_back(1);
  return out;
}

Result<ShardHandshakeAck> DecodeShardHandshakeAck(
    std::span<const uint8_t> payload) {
  Cursor cursor(payload);
  ShardHandshakeAck ack;
  if (!cursor.ReadU64(&ack.num_nodes) || !cursor.ReadU64(&ack.num_arcs) ||
      !cursor.ReadU64(&ack.num_owned) ||
      !cursor.ReadU64(&ack.boundary_in_arcs)) {
    return Truncated("ShardHandshakeAck");
  }
  if (Status s = ReadNodeList(cursor, "ShardHandshakeAck dangling",
                              &ack.dangling_owned);
      !s.ok()) {
    return s;
  }
  if (Status s = ReadNodeList(cursor, "ShardHandshakeAck boundary",
                              &ack.boundary_sources);
      !s.ok()) {
    return s;
  }
  if (cursor.remaining() != 0) {
    uint8_t needs_metric = 0;
    if (!cursor.ReadU8(&needs_metric)) return Truncated("ShardHandshakeAck");
    // The encoder writes this byte only when the flag is set; an
    // explicit 0 is non-canonical and treated as trailing garbage.
    if (needs_metric != 1) {
      return Status::InvalidArgument(
          StrCat("bad needs_metric_values byte ", needs_metric));
    }
    ack.needs_metric_values = true;
  }
  if (Status trailing = RejectTrailing(cursor, "ShardHandshakeAck");
      !trailing.ok()) {
    return trailing;
  }
  return ack;
}

// --- ShardSolveBegin ---

std::vector<uint8_t> EncodeShardSolveBegin(const ShardSolveBegin& begin) {
  std::vector<uint8_t> out;
  AppendU64(out, begin.solve_id);
  AppendU32(out, begin.method);
  AppendU32(out, static_cast<uint32_t>(begin.dangling));
  AppendF64(out, begin.alpha);
  AppendScoreList(out, begin.initial);
  AppendScoreList(out, begin.teleport);
  // Trailing section, appended only when non-empty: the empty encoding
  // stays byte-identical to the previous revision.
  if (!begin.metric_values.empty()) AppendScoreList(out, begin.metric_values);
  return out;
}

Result<ShardSolveBegin> DecodeShardSolveBegin(
    std::span<const uint8_t> payload) {
  Cursor cursor(payload);
  ShardSolveBegin begin;
  uint32_t dangling = 0;
  if (!cursor.ReadU64(&begin.solve_id) || !cursor.ReadU32(&begin.method) ||
      !cursor.ReadU32(&dangling) || !cursor.ReadF64(&begin.alpha)) {
    return Truncated("ShardSolveBegin");
  }
  // Only the two block-iterative methods have a distributed sweep; push
  // methods never reach this frame.
  if (begin.method != static_cast<uint32_t>(SolverMethod::kPower) &&
      begin.method != static_cast<uint32_t>(SolverMethod::kGaussSeidel)) {
    return Status::InvalidArgument(
        StrCat("bad solve method ", begin.method));
  }
  if (dangling > static_cast<uint32_t>(DanglingPolicy::kRenormalize)) {
    return Status::InvalidArgument(StrCat("bad dangling policy ", dangling));
  }
  if (Status s = ReadScoreList(cursor, "ShardSolveBegin initial",
                               &begin.initial);
      !s.ok()) {
    return s;
  }
  if (Status s = ReadScoreList(cursor, "ShardSolveBegin teleport",
                               &begin.teleport);
      !s.ok()) {
    return s;
  }
  if (begin.initial.size() != begin.teleport.size()) {
    return Status::InvalidArgument(
        StrCat("ShardSolveBegin initial has ", begin.initial.size(),
               " values but teleport has ", begin.teleport.size()));
  }
  if (cursor.remaining() != 0) {
    if (Status s = ReadScoreList(cursor, "ShardSolveBegin metric",
                                 &begin.metric_values);
        !s.ok()) {
      return s;
    }
    // The section exists only to carry values; an empty list would be
    // indistinguishable from (and longer than) its own absence.
    if (begin.metric_values.empty()) {
      return Status::InvalidArgument(
          "ShardSolveBegin metric section present but empty");
    }
  }
  if (Status trailing = RejectTrailing(cursor, "ShardSolveBegin");
      !trailing.ok()) {
    return trailing;
  }
  begin.dangling = static_cast<DanglingPolicy>(dangling);
  return begin;
}

// --- ShardSweepRequest ---

void EncodeShardSweepRequest(const ShardSweepRequest& request,
                             std::span<const double> iterate,
                             std::span<const NodeId> sources,
                             std::vector<uint8_t>& out) {
  out.clear();
  // The fixed fields, the count and the values, sized in one step: a
  // fresh buffer grown through the small fields first measured a higher
  // peak RSS on the cluster benchmark (CHANGES.md, PR 19).
  out.reserve(8 + 4 + 8 + 1 + 8 + 4 + 8 * sources.size());
  AppendU64(out, request.solve_id);
  AppendU32(out, request.sweep);
  AppendF64(out, request.dangling_mass);
  out.push_back(request.has_rescale ? 1 : 0);
  AppendF64(out, request.rescale);
  AppendU32(out, static_cast<uint32_t>(sources.size()));
  const size_t offset = out.size();
  out.resize(offset + sizeof(double) * sources.size());
  uint8_t* p = out.data() + offset;
  for (NodeId v : sources) {
    std::memcpy(p, &iterate[static_cast<size_t>(v)], sizeof(double));
    p += sizeof(double);
  }
}

Status DecodeShardSweepRequest(std::span<const uint8_t> payload,
                               ShardSweepRequest* request,
                               WireScores* boundary) {
  Cursor cursor(payload);
  uint8_t has_rescale = 0;
  if (!cursor.ReadU64(&request->solve_id) || !cursor.ReadU32(&request->sweep) ||
      !cursor.ReadF64(&request->dangling_mass) ||
      !cursor.ReadU8(&has_rescale) || !cursor.ReadF64(&request->rescale)) {
    return Truncated("ShardSweepRequest");
  }
  if (has_rescale > 1) {
    return Status::InvalidArgument(
        StrCat("bad has_rescale byte ", has_rescale));
  }
  if (request->sweep == 0) {
    return Status::InvalidArgument("sweep index is zero (sweeps are 1-based)");
  }
  D2PR_RETURN_NOT_OK(
      ReadScoreView(cursor, "ShardSweepRequest boundary", boundary));
  D2PR_RETURN_NOT_OK(RejectTrailing(cursor, "ShardSweepRequest"));
  request->has_rescale = has_rescale != 0;
  return Status::OK();
}

// --- ShardSweepResponse ---

void EncodeShardSweepResponse(const ShardSweepResponse& response,
                              std::span<const double> owned,
                              std::vector<uint8_t>& out) {
  out.clear();
  // The partials trail the list: without room for them up front, a fresh
  // buffer sized exactly by the list's append would be copied again.
  out.reserve(8 + 4 + 4 + 8 * owned.size() + 8 + 8);
  AppendU64(out, response.solve_id);
  AppendU32(out, response.sweep);
  AppendScoreList(out, owned);
  AppendF64(out, response.dangling_partial);
  AppendF64(out, response.residual_partial);
}

Status DecodeShardSweepResponse(std::span<const uint8_t> payload,
                                ShardSweepResponse* response,
                                WireScores* owned) {
  Cursor cursor(payload);
  if (!cursor.ReadU64(&response->solve_id) || !cursor.ReadU32(&response->sweep)) {
    return Truncated("ShardSweepResponse");
  }
  if (response->sweep == 0) {
    return Status::InvalidArgument("sweep index is zero (sweeps are 1-based)");
  }
  D2PR_RETURN_NOT_OK(ReadScoreView(cursor, "ShardSweepResponse owned", owned));
  if (!cursor.ReadF64(&response->dangling_partial) ||
      !cursor.ReadF64(&response->residual_partial)) {
    return Truncated("ShardSweepResponse");
  }
  return RejectTrailing(cursor, "ShardSweepResponse");
}

// --- ShardSolveEnd ---

std::vector<uint8_t> EncodeShardSolveEnd(const ShardSolveEnd& end) {
  std::vector<uint8_t> out;
  AppendU64(out, end.solve_id);
  return out;
}

Result<ShardSolveEnd> DecodeShardSolveEnd(std::span<const uint8_t> payload) {
  Cursor cursor(payload);
  ShardSolveEnd end;
  if (!cursor.ReadU64(&end.solve_id)) return Truncated("ShardSolveEnd");
  if (Status trailing = RejectTrailing(cursor, "ShardSolveEnd");
      !trailing.ok()) {
    return trailing;
  }
  return end;
}

}  // namespace d2pr
