// ShardWorker: one partition shard's side of the distributed block
// solve — the service a `d2pr_server --shard-role` process hosts and a
// DistributedCoordinator drives through the v2 frames of
// net/shard_wire.h.
//
// A worker hosts one ShardCut (graph/shard_cut.h): the shard's
// PartitionShard plus the ghost rows and weights its matrix-free
// transition slice needs. It has one factory, Create(ShardCut, config);
// CreateFromCutFile() is LoadShardCut followed by Create. The cut comes
// from a pre-cut file (`d2pr_server --shard-file`, the deployment path,
// where no whole-graph structure of ANY kind exists in the process —
// tests/dist_cut_test.cc pins this via GraphBuilder::BuildCount and
// TransitionMatrix::BuildCount) or from CutShard in memory (tests,
// `d2pr_server --shard-role` without a file). Either way the worker
// defers its transition-slice build until the first kSolveBegin, whose
// trailing section carries the O(|V|) global metric vector the ack
// requested (needs_metric_values); the slice it builds is bitwise the
// whole-graph matrix's slice. Per solve it
// retains its owned slice of the iterate across sweeps, so a sweep
// request carries only the O(boundary) remote values, the globally
// folded dangling mass, and — after iterations the coordinator
// L1-normalized globally — the exact 1/norm scalar to replay on the
// retained slice. The sweep arithmetic is lifted line-for-line from
// core/block_solver.cc: same fold order (ascending global source within
// each owned row, owned rows in ascending order), same policy terms,
// same teleport blend — which is what makes the distributed power solve
// bitwise identical to SolvePagerankPartitioned and block Gauss-Seidel
// identical to its in-process form (tests/dist_parity_test.cc).
//
// Handshake rejections are deliberately distinct so a mis-wired cluster
// diagnoses itself from status codes alone:
//
//   wrong shard id for this worker          -> NotFound
//   wrong shard count                       -> OutOfRange
//   wrong partition scheme / slice build    -> FailedPrecondition
//   graph fingerprint mismatch              -> FailedPrecondition
//   transition key mismatch (p/beta/metric) -> InvalidArgument
//   shard already claimed by a live session -> AlreadyExists
//
// Every reply the worker produces is safe to resend: a sweep request
// repeating the last executed sweep returns the cached reply without
// re-executing, so coordinator retries after a timeout (and duplicated
// frames from a flaky transport) cannot double-advance the iterate.
//
// Thread model: Handle() is serialized by an internal mutex. Multiple
// connections may talk to one worker concurrently (that is how the
// duplicate-claim rejection is exercised), but only the claiming session
// can start solves and sweep.

#ifndef D2PR_DIST_SHARD_WORKER_H_
#define D2PR_DIST_SHARD_WORKER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/transition.h"
#include "dist/channel.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {

/// \brief One shard's solve service.
class ShardWorker {
 public:
  /// Hosts `cut` under transition model `config` (metric may be kAuto,
  /// resolved against the cut's weightedness exactly as the engine
  /// normalizes its cache key, so coordinator and worker agree on the
  /// resolved key bitwise). Shard id, shard count, scheme, fingerprint,
  /// and node/arc totals all come from the cut's metadata. The
  /// transition slice is NOT built here — it needs the global metric
  /// vector, which the coordinator ships in the first kSolveBegin after
  /// the handshake ack sets needs_metric_values. Errors: an invalid
  /// config.
  static Result<std::unique_ptr<ShardWorker>> Create(
      ShardCut cut, const TransitionConfig& config);

  /// LoadShardCut(path) (a `d2pr_partition_cut` output), then Create.
  /// Errors surface from the cut load/validation or an invalid config.
  static Result<std::unique_ptr<ShardWorker>> CreateFromCutFile(
      const std::string& path, const TransitionConfig& config);

  /// Handles one frame from logical connection `session_id` and returns
  /// the reply frame — application errors (handshake rejections, order
  /// violations, undecodable payloads) come back as kStatus frames, so
  /// an OK Result does NOT mean the request succeeded. A non-OK Result
  /// means the frame is not answerable at all (a type this service never
  /// accepts) and the hosting connection must close.
  Result<ShardFrame> Handle(const ShardFrame& request, uint64_t session_id);

  /// Releases `session_id`'s claim (and its solve state) — the hosting
  /// server calls this when the connection dies, so a crashed
  /// coordinator does not wedge the shard forever.
  void CloseSession(uint64_t session_id);

  uint64_t graph_fingerprint() const { return cut_.meta.graph_fingerprint; }
  size_t shard_id() const { return cut_.meta.shard_id; }
  const PartitionShard& shard() const { return cut_.shard; }

  /// Sweeps executed (cache hits from retried sweeps excluded).
  int64_t sweeps_executed() const;

  /// Bytes of graph-shaped structure resident in this worker right now:
  /// the shard's CSR arrays, boundary/slot indexes, and — until the
  /// first solve builds the slice — the cut's out-CSR, ghost rows, and
  /// weights. The per-worker evidence behind the ~1/N resident-memory
  /// claim (tests/dist_cut_test.cc, results/dist_bench.md). Excludes the
  /// transition slice and iterate (per-key solve state, not graph).
  int64_t resident_graph_bytes() const;

  /// Bytes of graph-shaped INPUT this worker consumed at creation: its
  /// cut's payload (ShardCut::payload_bytes).
  int64_t build_input_bytes() const { return build_input_bytes_; }

 private:
  /// The worker's resolved transition key fields (compared bitwise
  /// against the handshake).
  struct ResolvedKey {
    double p = 0.0;
    double beta = 0.0;
    DegreeMetric metric = DegreeMetric::kOutDegree;
  };

  ShardWorker(ShardCut cut, const TransitionConfig& config, ResolvedKey key);

  /// Fills owned_dangling_ and src_slot_ from the cut's in-CSR and its
  /// boundary sources (the published order of every sweep request's
  /// boundary vector).
  void InitDerivedIndexes();

  ShardFrame StatusReply(uint64_t request_id, const Status& status) const;

  ShardFrame HandleHandshake(const ShardFrame& request, uint64_t session_id);
  ShardFrame HandleSolveBegin(const ShardFrame& request, uint64_t session_id);
  ShardFrame HandleSweep(const ShardFrame& request, uint64_t session_id);
  ShardFrame HandleSolveEnd(const ShardFrame& request, uint64_t session_id);

  /// Executes one sweep over the retained slice (see the .cc for the
  /// line-for-line correspondence with core/block_solver.cc).
  void ExecuteSweep(double dangling_mass, bool has_rescale, double rescale,
                    const std::vector<double>& boundary);

  /// The hosted cut. Its out-CSR, ghost rows, and weights are dropped
  /// once the first solve begin has built the slice; the in-CSR, owned
  /// and dangling lists, and boundary sources stay for the sweeps.
  ShardCut cut_;
  TransitionConfig config_;
  ResolvedKey key_;
  /// True once probs_ holds this shard's slice (after the first
  /// metric-carrying solve begin).
  bool slice_ready_ = false;
  int64_t build_input_bytes_ = 0;
  /// This shard's contiguous in-CSR-aligned probability slice.
  std::vector<double> probs_;
  /// dangling flag per owned local index (ascending owned order).
  std::vector<uint8_t> owned_dangling_;
  /// Scratch slot of each in-CSR position: local owned index, or
  /// num_owned + boundary index. Precomputed so the sweep's inner loop
  /// never searches.
  std::vector<size_t> src_slot_;

  mutable std::mutex mu_;
  /// Session currently claiming the shard; 0 = unclaimed.
  uint64_t claimed_by_ = 0;

  // --- per-solve state (valid while solve_active_) ---
  bool solve_active_ = false;
  uint64_t solve_id_ = 0;
  uint32_t method_ = 0;
  DanglingPolicy dangling_policy_ = DanglingPolicy::kTeleport;
  double alpha_ = 0.85;
  /// Owned slice of the teleport vector.
  std::vector<double> teleport_;
  /// Iterate scratch: [owned values | boundary values], indexed by
  /// src_slot_. The owned prefix is the retained slice.
  std::vector<double> vals_;
  /// Power's double buffer for the new owned slice (GS sweeps in place).
  std::vector<double> next_;
  /// Last executed sweep (0 before the first) and its cached reply
  /// payload, re-sent verbatim when the coordinator retries.
  uint32_t last_sweep_ = 0;
  std::vector<uint8_t> cached_reply_;

  int64_t sweeps_executed_ = 0;
};

}  // namespace d2pr

#endif  // D2PR_DIST_SHARD_WORKER_H_
