// Pre-cut shard files: one self-describing file per partition block, so
// a `d2pr_server --shard-file` process hosts its shard WITHOUT ever
// loading (or regenerating) the whole graph — the memory win
// distribution is supposed to buy. `d2pr_partition_cut` partitions a
// graph once and writes one file per shard; ShardWorker loads exactly
// one. CutShard builds the same ShardCut in memory, for fleets that hold
// the graph anyway (tests, `d2pr_server --shard-role` without a file).
//
// What one file carries (everything a ShardWorker needs that is not
// derivable closed-form from the metadata):
//
//   * the shard's out-CSR — its owned rows with GLOBAL target ids and
//     the global arc index of each row, exactly PartitionShard's forward
//     slice, so the shard can normalize its own rows for the de-coupled
//     transition model;
//   * the shard's in-CSR — owned destinations' incoming arcs in strictly
//     ascending source order, each with its global arc index (the fold
//     order the solvers' bit-parity contract requires);
//   * the ascending dangling-owned and boundary-source lists the
//     handshake publishes;
//   * GHOST ROWS: the full out-row of every boundary source. A shard's
//     transition factors need each in-arc source's row factor c_i =
//     1/Z_i (and, under the beta blend, its out-strength); for boundary
//     sources that row lives on another shard. Shipping those rows in
//     the cut — they are static graph structure, O(boundary) rows — lets
//     the worker derive c locally with the exact fold order the owner
//     shard would use, keeping every factor bitwise identical to the
//     whole-graph build. The only whole-graph-sized input left
//     is the O(|V|) metric vector, which the coordinator broadcasts in
//     the solve-begin frame;
//   * for weighted graphs, the weights of all three arc families
//     (out rows, in-CSR positions — pre-gathered through the global arc
//     index at cut time — and ghost rows), so the beta blend never needs
//     the global weight array.
//
// Container conventions follow api/transition_store.cc: 8-byte magic,
// format version, fixed header with per-section Checksum64s and a header
// checksum, exact-size check, atomic save via unique temp + fsync +
// rename, mmap-backed load. A loader validates STRUCTURE, not just
// checksums: owned counts against the closed-form ownership rule
// (PartitionOwnerOf), offset monotonicity, id ranges, sorted-unique
// rows, dangling/boundary list consistency — a file that lies about its
// shape is rejected with a distinct IoError, never trusted into an
// allocation or a wrong solve.

#ifndef D2PR_GRAPH_SHARD_CUT_H_
#define D2PR_GRAPH_SHARD_CUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"
#include "graph/types.h"

namespace d2pr {

/// \brief The identity block of a cut file — everything checkable
/// without reading payload sections (ReadShardCutMetadata stops here).
struct ShardCutMetadata {
  uint64_t graph_fingerprint = 0;
  /// GLOBAL node / arc totals of the graph the cut was taken from.
  NodeId num_nodes = 0;
  EdgeIndex num_arcs = 0;
  PartitionScheme scheme = PartitionScheme::kRange;
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  bool directed = false;
  bool weighted = false;
};

/// \brief One loaded cut: the shard's PartitionShard (out-CSR included)
/// plus the ghost rows and weight arrays the shard's factor build
/// needs. All node ids are global.
struct ShardCut {
  ShardCutMetadata meta;

  /// Bit-for-bit the PartitionShard GraphPartition::Build(out_csr=true)
  /// produces for this shard (tests/shard_cut_test.cc cross-checks every
  /// field), including the derived owned list, in_interior bits, and
  /// boundary counters the loader reconstructs from the ownership rule.
  PartitionShard shard;

  /// Distinct non-owned sources of the in-CSR, ascending global ids —
  /// the published boundary order of the handshake ack.
  std::vector<NodeId> boundary_sources;

  // --- ghost rows: boundary_sources[b]'s full out-row ---
  /// Row boundaries into ghost_targets; size boundary_sources.size() + 1.
  std::vector<EdgeIndex> ghost_offsets;
  /// Global target ids, ascending within each row.
  std::vector<NodeId> ghost_targets;

  // --- per-arc weights (empty unless meta.weighted) ---
  /// Aligned with shard.out_targets.
  std::vector<double> out_weights;
  /// Aligned with shard.in_sources: the weight of the forward arc at
  /// shard.in_arc_index[idx], pre-gathered at cut time so the worker
  /// never touches the global weight array.
  std::vector<double> in_weights;
  /// Aligned with ghost_targets.
  std::vector<double> ghost_weights;

  /// Bytes of graph-shaped payload this cut holds in memory — the
  /// byte-accounting input for the resident-memory ~1/N proof
  /// (tests/dist_cut_test.cc, results/dist_bench.md).
  int64_t payload_bytes() const;
};

/// \brief Canonical file name of one shard's cut:
/// "cut-<fingerprint16>-<scheme>-s<shard>of<N>.d2psc".
std::string ShardCutFileName(uint64_t graph_fingerprint,
                             PartitionScheme scheme, size_t num_shards,
                             size_t shard_id);

/// \brief Cuts shard `shard_id` of `partition` (which must have been
/// built from `graph` with build_out_csr = true) in memory: the ShardCut
/// LoadShardCut would return for the file SaveShardCut writes, field for
/// field. InvalidArgument for a bad shard id, a partition of another
/// graph, or a partition built without the out-CSR.
Result<ShardCut> CutShard(const CsrGraph& graph,
                          const GraphPartition& partition, size_t shard_id);

/// \brief CutShard, then writes the cut to `path` atomically (unique
/// temp + fsync + rename). CutShard's errors, or IoError on filesystem
/// failures.
Status SaveShardCut(const CsrGraph& graph, const GraphPartition& partition,
                    size_t shard_id, const std::string& path);

/// \brief Loads and fully validates one cut file. IoError for anything
/// corrupt (bad magic, checksum or size mismatch, structural lies);
/// FailedPrecondition for a format version this build does not read.
Result<ShardCut> LoadShardCut(const std::string& path);

/// \brief Reads only the metadata block (header gates still apply:
/// magic, version, header checksum) — the cheap peek `d2pr_cluster
/// --cut-dir` uses to cross-check a directory of cuts against its graph
/// before any server is contacted.
Result<ShardCutMetadata> ReadShardCutMetadata(const std::string& path);

}  // namespace d2pr

#endif  // D2PR_GRAPH_SHARD_CUT_H_
