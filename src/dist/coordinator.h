// DistributedCoordinator: the block-iteration loop of
// core/block_solver.cc driven over N shard connections instead of N
// in-process shards.
//
// The coordinator owns the canonical full iterate and performs every
// global fold itself, in exactly the reference's order: the dangling
// mass folds over the merged ascending dangling list, the L1
// normalization and the DiffL1 residual run over the assembled full
// vector, and the teleport blend happens shard-side with the same
// element order the in-process sweep uses. Shards only ever compute
// their owned slices — so the distributed power solve is BITWISE
// identical to SolvePagerankPartitioned (scores, iteration count, final
// residual), and block Gauss-Seidel is bitwise its in-process form
// (tests/dist_parity_test.cc). The one subtlety is global
// renormalization: NormalizeL1 multiplies by 1/norm, so the coordinator
// broadcasts that exact scalar and each shard replays the multiply on
// its retained slice — bitwise the slice of the normalized vector.
//
// Per-sweep wire cost per shard: O(boundary sources) values down,
// O(owned) values up, plus two scalars — the exchange volume
// graph/partition.h accounts as boundary_in_arcs, deduplicated by
// source.
//
// Fault policy (tests/dist_fault_test.cc):
//   * A call that times out (DeadlineExceeded from the channel) is
//     retried up to `max_retries` times — safe because every shard
//     request is idempotent (the worker caches its last sweep reply).
//     Exhausted retries fail the solve with DeadlineExceeded.
//   * A dead transport (IoError / Unavailable) fails the solve with
//     Unavailable immediately — no partial vector is ever returned.
//   * A kStatus reply carries the worker's own rejection and fails the
//     solve with that exact status (handshake mismatches keep their
//     distinct codes).
// Every failure path returns a clean Status; the coordinator never
// hangs (deadlines bound every wait) and never serves a partial result.

#ifndef D2PR_DIST_COORDINATOR_H_
#define D2PR_DIST_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "api/rank_request.h"
#include "api/transition_cache.h"
#include "common/result.h"
#include "core/pagerank.h"
#include "core/transition.h"
#include "dist/channel.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"

namespace d2pr {

/// \brief The resolved transition key a coordinator handshakes with —
/// normalized against the graph exactly as D2prEngine (and ShardWorker)
/// normalize theirs, so equal configurations compare bitwise equal.
TransitionKey ResolveTransitionKey(const CsrGraph& graph,
                                   const TransitionConfig& config);

/// \brief Coordinator knobs.
struct CoordinatorOptions {
  PartitionScheme scheme = PartitionScheme::kRange;
  /// Nodes of the (shared) graph; shard ownership is closed-form from
  /// scheme + num_nodes + shard count, so the coordinator never needs
  /// the graph itself.
  NodeId num_nodes = 0;
  /// GraphFingerprint of the graph every shard must hold.
  uint64_t graph_fingerprint = 0;
  /// Resolved transition key (ResolveTransitionKey).
  TransitionKey key;
  /// The FULL global per-node metric vector (MetricValues under
  /// key.metric), broadcast in the first kSolveBegin to any shard whose
  /// handshake ack set needs_metric_values — every worker asks until its
  /// first slice build, since a shard cut holds no whole-graph structure
  /// to derive it from. Must hold num_nodes values whenever a shard asks
  /// (Handshake rejects the mismatch, not Solve, so misconfiguration
  /// surfaces before any iterate moves).
  std::vector<double> metric_values;
  /// Per-call deadline for every shard round-trip, in milliseconds;
  /// 0 = wait forever (the in-process fleets run without deadlines).
  int64_t sweep_deadline_ms = 0;
  /// Retries per call after a DeadlineExceeded (idempotent resend).
  int max_retries = 2;
  /// Monotonic milliseconds for the stats' elapsed accounting;
  /// injectable so fault tests control time. Defaults to
  /// std::chrono::steady_clock.
  std::function<int64_t()> clock_ms;
};

/// \brief Cumulative coordinator counters.
struct CoordinatorStats {
  int64_t sweeps = 0;           ///< Synchronized sweep rounds completed.
  int64_t retries = 0;          ///< Idempotent resends after timeouts.
  int64_t boundary_values = 0;  ///< Boundary doubles shipped down, total.
  int64_t owned_values = 0;     ///< Owned doubles shipped up, total.
  int64_t metric_values_sent = 0;  ///< Metric doubles broadcast, total.
  int64_t elapsed_ms = 0;       ///< Wall clock inside Solve().
};

/// \brief Drives distributed block solves over one channel per shard.
class DistributedCoordinator {
 public:
  /// One channel per shard, index = shard id. Channels must outlive the
  /// coordinator.
  DistributedCoordinator(std::vector<ShardChannel*> channels,
                         const CoordinatorOptions& options);

  /// Handshakes every shard: sends the identity declaration, validates
  /// each ack against the closed-form ownership (owned count, node
  /// count, list sanity), and merges the shards' dangling lists into
  /// the global ascending list the bit-parity fold requires. Any
  /// rejection surfaces with the worker's distinct status code. Must
  /// succeed before Solve.
  Status Handshake();

  /// Runs one distributed block solve. `method` must be kPower or
  /// kGaussSeidel (kGaussSeidel rejects DanglingPolicy::kRenormalize,
  /// exactly as ValidateBlockGaussSeidelPolicy does in-process);
  /// `teleport` is a distribution over num_nodes. Returns the complete
  /// PagerankResult or a clean error — never a partial vector.
  Result<PagerankResult> Solve(SolverMethod method,
                               std::span<const double> teleport,
                               const PagerankOptions& options);

  const CoordinatorStats& stats() const { return stats_; }

  /// The shard id owning `node` under this coordinator's scheme
  /// (mirrors GraphPartition::OwnerOf).
  size_t OwnerOf(NodeId node) const;

 private:
  /// One channel round-trip under the fault policy (retry timeouts,
  /// Unavailable on dead transport, unwrap kStatus replies).
  Result<ShardFrame> CallShard(size_t shard, const ShardFrame& request,
                               FrameType expected_reply);

  /// Best-effort solve teardown (failures ignored — the worker also
  /// clears state when the connection dies).
  void EndSolve(uint64_t solve_id);

  int64_t NowMs() const;

  std::vector<ShardChannel*> channels_;
  CoordinatorOptions options_;
  CoordinatorStats stats_;

  bool handshaken_ = false;
  uint64_t next_request_id_ = 1;
  uint64_t next_solve_id_ = 1;

  /// Per-shard owned nodes, ascending (closed-form, computed once).
  std::vector<std::vector<NodeId>> owned_;
  /// Per-shard boundary sources (from the acks; the order boundary
  /// values are shipped in).
  std::vector<std::vector<NodeId>> boundary_;
  /// 1 while shard s still needs the metric vector in its next solve
  /// begin (from the acks; cleared after a solve begin it accepted).
  std::vector<uint8_t> needs_metric_;
  /// All dangling nodes, ascending global ids (merged from the acks).
  std::vector<NodeId> dangling_;
};

}  // namespace d2pr

#endif  // D2PR_DIST_COORDINATOR_H_
