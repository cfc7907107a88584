// v2 wire frames of the distributed block solve: the vocabulary a
// DistributedCoordinator (src/dist/coordinator.h) speaks to ShardWorker
// processes (src/dist/shard_worker.h) over the net/wire.h framing.
//
// The conversation is strictly request/response from the coordinator's
// side — every frame it sends gets exactly one reply frame — and mirrors
// the data flow of the in-process block solvers (core/block_solver.h):
//
//   kShardHandshake / kShardHandshakeAck
//     Sent once per connection. The coordinator declares the topology it
//     believes in (scheme, shard id, shard count) plus the
//     two identities that make cross-process numerics meaningful at all:
//     the graph fingerprint (graph/graph_fingerprint.h) and the
//     normalized transition key (p, effective beta, resolved metric). A
//     shard whose own configuration disagrees rejects with a DISTINCT
//     status per field (see shard_worker.h) and the hosting server closes
//     only that connection. The ack publishes what the coordinator cannot
//     derive closed-form: the shard's ascending dangling-owned list and
//     its ascending boundary-source list (the distinct remote nodes its
//     in-CSR pulls each sweep — the order sweep-request boundary values
//     are laid out in forever after).
//
//   kSolveBegin
//     Per-solve constants: method, dangling policy, alpha, and the
//     shard's owned slices of the initial iterate and the teleport
//     vector. Replies kStatus OK.
//
//   kSweepRequest / kSweepResponse
//     One synchronized sweep. The request carries the iteration index,
//     the globally folded dangling mass of the current iterate, the
//     boundary values (current iterate at the shard's published boundary
//     sources, in that order), and — when the previous iteration
//     L1-normalized globally — the exact 1/norm scalar, so the shard
//     rescales its retained slice bitwise identically to the
//     coordinator's NormalizeL1 over the full vector (Scale multiplies by
//     1.0/norm; replaying the multiply commutes with slicing). The
//     response publishes the shard's new owned slice plus advisory
//     partial sums (shard-folded dangling mass and L1 delta —
//     exchange-accounting telemetry; the coordinator recomputes the
//     canonical global folds itself because a sum of per-shard partials
//     groups differently in floating point than the reference's single
//     ascending fold).
//
//   kSolveEnd
//     Releases the shard's per-solve state. Replies kStatus OK;
//     idempotent (ending an unknown solve is OK).
//
// Codecs are pure functions over byte vectors with the same
// reject-all-malformed discipline as the v1 codecs in net/wire.h:
// truncation at any offset, trailing garbage, out-of-range enums, and
// element counts the remaining bytes cannot hold are all InvalidArgument,
// never a crash or an allocation sized from a lie (the count is checked
// against the remaining bytes before anything is allocated).
//
// Copy discipline. A node-id or score list travels as a u32 count plus
// its elements' little-endian bytes, and crosses a codec in ONE bulk copy
// (AppendArray / ReadArray, common/binary_io.h); the bytes are pinned by
// tests/wire_golden_test.cc. On the per-sweep path a list is not staged
// in a vector at all (the sweep codecs at the end of this header): the
// coordinator gathers boundary values straight into its request bytes and
// scatters owned values straight out of the reply bytes, and the worker
// copies the boundary list straight into its iterate and encodes its
// reply once, from its retained owned slice.

#ifndef D2PR_NET_SHARD_WIRE_H_
#define D2PR_NET_SHARD_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/pagerank.h"
#include "core/transition.h"
#include "graph/partition.h"
#include "graph/types.h"
#include "net/wire.h"

namespace d2pr {

// RankRequest (api/rank_request.h) is not included here; the solver
// method enum lives there, so the handshake/solve frames carry it as a
// plain u32 validated against the two block-solvable methods.

/// \brief Coordinator -> shard: identity and topology declaration
/// (kShardHandshake).
struct ShardHandshake {
  /// The shard id this connection intends to drive; the worker rejects a
  /// handshake for an id it does not host (NotFound).
  uint32_t shard_id = 0;
  /// Total shards of the partition (OutOfRange on mismatch).
  uint32_t num_shards = 1;
  PartitionScheme scheme = PartitionScheme::kRange;
  /// GraphFingerprint of the coordinator's graph (FailedPrecondition on
  /// mismatch — scores against a different graph are meaningless).
  uint64_t graph_fingerprint = 0;
  /// Normalized transition key: resolved metric, effective beta
  /// (InvalidArgument on mismatch). Compared bitwise — two configs that
  /// differ in any bit build different matrices.
  double p = 0.0;
  double beta = 0.0;
  DegreeMetric metric = DegreeMetric::kOutDegree;
};

/// \brief Shard -> coordinator: what the coordinator cannot derive
/// closed-form from the scheme (kShardHandshakeAck).
struct ShardHandshakeAck {
  uint64_t num_nodes = 0;
  uint64_t num_arcs = 0;
  /// Cross-check against the coordinator's closed-form owned count.
  uint64_t num_owned = 0;
  /// Pull-side boundary arcs (exchange-volume accounting).
  uint64_t boundary_in_arcs = 0;
  /// Owned nodes with no out-arcs, ascending global ids. The coordinator
  /// merges all shards' lists into the global ascending dangling list the
  /// bit-parity fold requires.
  std::vector<NodeId> dangling_owned;
  /// Distinct non-owned sources of the shard's in-CSR, ascending global
  /// ids. Every kSweepRequest lays its boundary values out in exactly
  /// this order.
  std::vector<NodeId> boundary_sources;
  /// True when the shard was loaded from a pre-cut file and has not yet
  /// built its transition slice: the coordinator must ship the global
  /// metric vector in its next kSolveBegin. Encoded as a TRAILING byte
  /// appended only when true, so the false encoding is byte-identical to
  /// the previous wire revision (old coordinators keep working against
  /// whole-graph workers, which never set it).
  bool needs_metric_values = false;
};

/// \brief Coordinator -> shard: per-solve constants (kSolveBegin).
struct ShardSolveBegin {
  /// Coordinator-chosen id correlating all frames of one solve.
  uint64_t solve_id = 0;
  /// SolverMethod as u32; only kPower and kGaussSeidel are block
  /// methods, anything else is rejected at decode.
  uint32_t method = 0;
  DanglingPolicy dangling = DanglingPolicy::kTeleport;
  double alpha = 0.85;
  /// Owned slice of the initial iterate (power: the globally normalized
  /// teleport; Gauss-Seidel: the raw teleport), ascending owned order.
  std::vector<double> initial;
  /// Owned slice of the teleport vector, ascending owned order.
  std::vector<double> teleport;
  /// The FULL global per-node metric vector (MetricValues under the
  /// handshaken key's metric) — the one O(|V|) broadcast a cut-loaded
  /// shard needs to build its transition slice, shipped only to shards
  /// whose ack set needs_metric_values. Encoded as a TRAILING score list
  /// appended only when non-empty, so the empty encoding is
  /// byte-identical to the previous wire revision.
  std::vector<double> metric_values;
};

/// \brief A score list decoded in place: `size()` f64 values left in the
/// payload bytes they arrived in, at any alignment. Borrowed — valid only
/// while that payload lives.
class WireScores {
 public:
  WireScores() = default;
  explicit WireScores(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  size_t size() const { return bytes_.size() / sizeof(double); }
  double operator[](size_t i) const {
    double value;
    std::memcpy(&value, bytes_.data() + i * sizeof(double), sizeof(value));
    return value;
  }
  /// One bulk copy of every value into `out`, which must hold exactly
  /// size() values (D2PR_CHECKed).
  void CopyTo(std::span<double> out) const;

 private:
  std::span<const uint8_t> bytes_;
};

/// \brief Coordinator -> shard: one synchronized sweep (kSweepRequest),
/// all but its boundary list — the current iterate at the shard's
/// boundary sources, in the ack's published order, which the codec
/// gathers and views in place (see the sweep codecs below).
struct ShardSweepRequest {
  uint64_t solve_id = 0;
  /// 1-based iteration index. A request repeating the last completed
  /// sweep is answered again without re-executing (idempotent retries);
  /// anything else out of order is FailedPrecondition.
  uint32_t sweep = 0;
  /// Dangling mass of the current iterate, folded by the coordinator
  /// over the global ascending dangling list (the canonical order).
  double dangling_mass = 0.0;
  /// When true, multiply the retained local slice by `rescale` before
  /// sweeping — the 1/norm scalar of the coordinator's NormalizeL1 on
  /// the previous iterate, replayed bitwise.
  bool has_rescale = false;
  double rescale = 1.0;
};

/// \brief Shard -> coordinator: one sweep's published slice
/// (kSweepResponse), all but its owned list — the shard's new owned
/// slice, ascending owned order (pre-normalize under policies that
/// normalize globally).
struct ShardSweepResponse {
  uint64_t solve_id = 0;
  uint32_t sweep = 0;
  /// Advisory shard-folded partials (see the file comment): dangling
  /// mass of the new slice over dangling_owned, and Σ|new - old| over
  /// owned, each folded in ascending owned order. Telemetry, not control
  /// inputs.
  double dangling_partial = 0.0;
  double residual_partial = 0.0;
};

/// \brief Coordinator -> shard: release per-solve state (kSolveEnd).
struct ShardSolveEnd {
  uint64_t solve_id = 0;
};

// --- payload codecs (payload bytes only, no frame header) ---

std::vector<uint8_t> EncodeShardHandshake(const ShardHandshake& handshake);
Result<ShardHandshake> DecodeShardHandshake(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeShardHandshakeAck(const ShardHandshakeAck& ack);
Result<ShardHandshakeAck> DecodeShardHandshakeAck(
    std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeShardSolveBegin(const ShardSolveBegin& begin);
Result<ShardSolveBegin> DecodeShardSolveBegin(
    std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeShardSolveEnd(const ShardSolveEnd& end);
Result<ShardSolveEnd> DecodeShardSolveEnd(std::span<const uint8_t> payload);

// --- sweep codecs: the per-sweep path ---
//
// A sweep frame's score list is never staged in a vector of its own. The
// encoders replace `out`'s contents and keep its capacity, so a buffer
// reused across sweeps stops allocating once warm; the decoders leave the
// list in `payload` as a WireScores view.

/// Encodes a kSweepRequest whose boundary list is `iterate` gathered at
/// `sources` (boundary value i = iterate[sources[i]]): the coordinator's
/// gather writes straight into the request bytes.
void EncodeShardSweepRequest(const ShardSweepRequest& request,
                             std::span<const double> iterate,
                             std::span<const NodeId> sources,
                             std::vector<uint8_t>& out);
Status DecodeShardSweepRequest(std::span<const uint8_t> payload,
                               ShardSweepRequest* request,
                               WireScores* boundary);

void EncodeShardSweepResponse(const ShardSweepResponse& response,
                              std::span<const double> owned,
                              std::vector<uint8_t>& out);
Status DecodeShardSweepResponse(std::span<const uint8_t> payload,
                                ShardSweepResponse* response,
                                WireScores* owned);

}  // namespace d2pr

#endif  // D2PR_NET_SHARD_WIRE_H_
