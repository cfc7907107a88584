// ShardWorker: one partition shard's side of the distributed block
// solve — the service a `d2pr_server --shard-role` process hosts and a
// DistributedCoordinator drives through the v2 frames of
// net/shard_wire.h.
//
// A worker hosts one ShardCut (graph/shard_cut.h): the shard's
// PartitionShard plus the ghost rows and weights its transition factors
// need. It has one factory, Create(ShardCut, config);
// CreateFromCutFile() is LoadShardCut followed by Create. The cut comes
// from a pre-cut file (`d2pr_server --shard-file`, the deployment path,
// where no whole-graph structure of ANY kind exists in the process —
// tests/dist_cut_test.cc pins this via GraphBuilder::BuildCount and
// TransitionMatrix::BuildCount) or from CutShard in memory (tests,
// `d2pr_server --shard-role` without a file). Either way the worker
// defers its factor build until the first kSolveBegin, whose trailing
// section carries the O(|V|) global metric vector the ack requested
// (needs_metric_values): u over its owned nodes and c over its in-arc
// sources, c of a boundary source derived from its ghost row, each
// bitwise the whole-graph factor (core/transition_slices.h). Per solve it
// retains its owned slice of the iterate across sweeps, so a sweep
// request carries only the O(boundary) remote values, the globally
// folded dangling mass, and — after iterations the coordinator
// L1-normalized globally — the exact 1/norm scalar to replay on the
// retained slice. The sweep is the in-process solvers' own BlockSweep
// (core/block_solver.h), run over the worker's [owned | boundary] slots:
// same fold order (ascending global source within each owned row, owned
// rows in ascending order), same policy terms, same teleport blend —
// which is what makes the distributed solve, power and block
// Gauss-Seidel alike, bitwise identical to its in-process form
// (tests/dist_parity_test.cc).
//
// Handshake rejections are deliberately distinct so a mis-wired cluster
// diagnoses itself from status codes alone:
//
//   wrong shard id for this worker          -> NotFound
//   wrong shard count                       -> OutOfRange
//   wrong partition scheme                  -> FailedPrecondition
//   graph fingerprint mismatch              -> FailedPrecondition
//   transition key mismatch (p/beta/metric) -> InvalidArgument
//   shard already claimed by a live session -> AlreadyExists
//   undecodable handshake (a scheme, slice
//   mode or metric value out of range)      -> InvalidArgument
//
// Every reply the worker produces is safe to resend: a sweep request
// repeating the last executed sweep is answered again, byte for byte,
// from the retained slice without re-executing, so coordinator retries
// after a timeout (and duplicated frames from a flaky transport) cannot
// double-advance the iterate.
//
// Copy discipline per sweep: the request's boundary list is copied once,
// straight from the payload into the tail of the iterate scratch; the
// advisory partials fold inside the sweep's node loop (no extra pass);
// and the reply is encoded once, straight from the retained owned slice
// into the caller's reply frame, whose payload capacity the next sweep
// reuses — nothing is staged or cached as bytes.
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
#include "core/block_solver.h"
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
  /// transition factors are NOT built here — they need the global metric
  /// vector, which the coordinator ships in the first kSolveBegin after
  /// the handshake ack sets needs_metric_values. Errors: an invalid
  /// config.
  static Result<std::unique_ptr<ShardWorker>> Create(
      ShardCut cut, const TransitionConfig& config);

  /// LoadShardCut(path) (a `d2pr_partition_cut` output), then Create.
  /// Errors surface from the cut load/validation or an invalid config.
  static Result<std::unique_ptr<ShardWorker>> CreateFromCutFile(
      const std::string& path, const TransitionConfig& config);

  /// Handles one frame from logical connection `session_id` and writes
  /// the reply frame into `reply`, a caller-owned frame whose payload
  /// capacity a sweep reply reuses (a connection keeps one). Application
  /// errors (handshake rejections, order violations, undecodable
  /// payloads) come back as kStatus frames, so an OK Status does NOT
  /// mean the request succeeded. A non-OK Status means the frame is not
  /// answerable at all (a type this service never accepts), `reply` is
  /// unspecified, and the hosting connection must close.
  Status Handle(const ShardFrame& request, uint64_t session_id,
                ShardFrame* reply);

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
  /// first solve builds the factors — the cut's out-CSR, ghost rows, and
  /// weights. The per-worker evidence behind the ~1/N resident-memory
  /// claim (tests/dist_cut_test.cc, results/dist_bench.md). Excludes the
  /// transition factors and iterate (per-key solve state, not graph).
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

  // Each handler writes its reply frame (type, request id, payload) into
  // `reply`.
  void HandleHandshake(const ShardFrame& request, uint64_t session_id,
                       ShardFrame* reply);
  void HandleSolveBegin(const ShardFrame& request, uint64_t session_id,
                        ShardFrame* reply);
  void HandleSweep(const ShardFrame& request, uint64_t session_id,
                   ShardFrame* reply);
  void HandleSolveEnd(const ShardFrame& request, uint64_t session_id,
                      ShardFrame* reply);

  /// The hosted cut. Its out-CSR, ghost rows, and weights are dropped
  /// once the first solve begin has built the factors; the in-CSR (with
  /// its weights under the beta blend), owned and dangling lists, and
  /// boundary sources stay for the sweeps.
  ShardCut cut_;
  TransitionConfig config_;
  ResolvedKey key_;
  /// True once factors_ holds this shard's transition (after the first
  /// metric-carrying solve begin).
  bool slice_ready_ = false;
  int64_t build_input_bytes_ = 0;
  /// This shard's transition factors: u over owned positions, c over
  /// [owned | boundary] slots (core/transition_slices.h).
  TransitionFactors factors_;
  /// A power sweep's products y = c∘x over the slots.
  SourceProducts products_;
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
  /// Method, policy and α from the solve begin; each sweep sets the rest.
  BlockSweepParams params_;
  /// Owned slice of the teleport vector.
  std::vector<double> teleport_;
  /// Iterate scratch: [owned values | boundary values], indexed by
  /// src_slot_. The owned prefix is the retained slice; a sweep request's
  /// boundary list is copied straight into the tail.
  std::vector<double> vals_;
  /// Power's double buffer for the new owned slice (empty under
  /// Gauss-Seidel, which sweeps in place).
  std::vector<double> next_;
  /// Last executed sweep (0 before the first) and its advisory partials.
  /// Its reply is re-encoded from these and the untouched owned prefix
  /// when the coordinator retries — byte for byte the first reply.
  uint32_t last_sweep_ = 0;
  BlockSweepPartials partials_;

  int64_t sweeps_executed_ = 0;
};

}  // namespace d2pr

#endif  // D2PR_DIST_SHARD_WORKER_H_
