// GraphPartitioner: vertex partitions of a CsrGraph into per-shard
// subgraphs for block-iterative (distributed-style) PageRank solves.
//
// A partition assigns every node to exactly one shard (its *owner*). Each
// shard materializes two local CSR structures over its owned nodes:
//
//   * an out-CSR of the owned rows — the shard's slice of the forward
//     adjacency, targets kept as global ids so cross-shard arcs are
//     directly visible, plus the global arc offset of each row so the
//     shard can slice per-arc data (transition probabilities) out of a
//     shared TransitionMatrix without copying it;
//   * an in-CSR of the owned nodes as *destinations* — for each owned
//     node, its incoming arcs sorted by ascending global source, each
//     carrying the global arc index of the forward arc it mirrors. This
//     is the pull side of the block iteration: a sweep computes an owned
//     node's next value by folding its in-row, reading remote sources
//     from the iterate published by their owner shards.
//
// Arcs whose source and destination live on different shards are
// *boundary* arcs: they are exactly the mass exchanged between shards in
// a block sweep, and the partitioner counts them per shard (the exchange
// volume a real deployment would put on the wire). The in-CSR keeps
// interior and boundary arcs merged in source order rather than split,
// because the block power solver's bit-parity contract (see
// core/block_solver.h) requires contributions to fold in ascending global
// source order — the same order TransitionMatrix::Multiply produces.
//
// TransitionSlices (below, built by core/transition_slices.h) pairs each
// shard's in-CSR with a contiguous slice of transition probabilities in
// the same order, so a block sweep streams its per-arc data instead of
// gathering it through the O(|E|) global arc index — the locality (and,
// for the shard-local construction path, the O(|V|)-exchange memory
// model) the distributed story depends on.
//
// Two schemes:
//   * kRange — contiguous, balanced node ranges (locality-preserving for
//     graphs with id-local structure, e.g. BFS- or time-ordered ids);
//   * kHash — owner = node id modulo shard count (load-balancing for
//     adversarial id orders; matches serve/ModuloShardMap, so a router's
//     seed ownership and a partition's node ownership agree).
//
// Degenerate inputs are well-formed, never fatal: an empty graph or a
// shard count exceeding the node count simply yields shards that own
// nothing; a shard of all-dangling nodes has an empty out-CSR. The only
// build error is a zero shard count.

#ifndef D2PR_GRAPH_PARTITION_H_
#define D2PR_GRAPH_PARTITION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/types.h"

namespace d2pr {

/// \brief How nodes are assigned to shards.
enum class PartitionScheme {
  /// Contiguous node ranges, sizes differing by at most one.
  kRange,
  /// Owner = node id modulo shard count.
  kHash,
};

/// \brief Human-readable scheme name ("range", "hash").
const char* PartitionSchemeName(PartitionScheme scheme);

/// \brief The shard owning `node` under `scheme` for a `num_shards`-way
/// partition of `num_nodes` nodes (O(1), closed-form per scheme).
///
/// This is THE ownership rule: GraphPartition, the
/// DistributedCoordinator, and the shard-cut loader
/// (graph/shard_cut.h) all delegate here, so the three consumers that
/// must agree on ownership can never drift.
size_t PartitionOwnerOf(PartitionScheme scheme, NodeId node, NodeId num_nodes,
                        size_t num_shards);

/// \brief Partitioner knobs.
struct PartitionOptions {
  PartitionScheme scheme = PartitionScheme::kRange;
  /// Number of shards; must be >= 1 (0 is InvalidArgument, not clamped —
  /// callers who want clamping decide that policy themselves).
  size_t num_shards = 2;
  /// Materialize each shard's out-CSR (the forward adjacency slice).
  /// The pull-style block solvers consume only the in-CSR — and the
  /// transition slices (TransitionSlices) are in-CSR-aligned too — so
  /// consumers that exist purely to serve (EngineRouter's
  /// partitioned-subgraph mode) pass false and save an O(|E|) copy of
  /// the arc arrays; the boundary/dangling accounting is computed either
  /// way. Push-style consumers keep the default.
  bool build_out_csr = true;
};

/// \brief One shard's materialized subgraph: local CSR of owned rows plus
/// the in-arc index used for pull-style block sweeps.
///
/// All node ids stored here are *global*; "local" refers to the arrays
/// holding only this shard's slice. `owned` is ascending, so local index
/// k corresponds to global node `owned[k]` and binary search inverts the
/// mapping (GraphPartition::OwnerOf is O(1) instead).
struct PartitionShard {
  /// Owned nodes, ascending global ids. May be empty.
  std::vector<NodeId> owned;

  // --- out-CSR of owned rows (forward slice) ---
  // Empty (all three vectors) when built with build_out_csr = false;
  // the counters below are filled regardless.
  /// Row boundaries into out_targets; size owned.size() + 1.
  std::vector<EdgeIndex> out_offsets;
  /// Global target ids, ascending within each row (CSR order preserved).
  std::vector<NodeId> out_targets;
  /// Global arc index of each owned row's first arc; size owned.size().
  /// Owned rows are whole rows of the source graph, so arc `j` of local
  /// row `k` is global arc out_arc_begin[k] + j.
  std::vector<EdgeIndex> out_arc_begin;

  // --- in-CSR of owned destinations (pull index) ---
  /// Row boundaries into in_sources / in_arc_index; size owned.size() + 1.
  std::vector<EdgeIndex> in_offsets;
  /// Global source ids, strictly ascending within each row.
  std::vector<NodeId> in_sources;
  /// Global arc index (into CsrGraph::targets() / TransitionMatrix::
  /// probs()) of the forward arc source -> owned destination.
  std::vector<EdgeIndex> in_arc_index;
  /// 1 when the arc's source is owned by this shard, 0 when it crosses
  /// the boundary. Precomputed so per-sweep consumers (block
  /// Gauss-Seidel chooses live vs frozen values by this bit) never pay
  /// an ownership lookup in their inner loop.
  std::vector<uint8_t> in_interior;

  // --- exchange accounting ---
  /// Owned out-arcs whose target another shard owns (push-side boundary).
  EdgeIndex boundary_out_arcs = 0;
  /// In-arcs whose source another shard owns (pull-side boundary; the
  /// values this shard reads from remote slices each sweep).
  EdgeIndex boundary_in_arcs = 0;
  /// Owned nodes with no outgoing arcs.
  std::vector<NodeId> dangling_owned;

  size_t num_owned() const { return owned.size(); }
  EdgeIndex num_out_arcs() const {
    return static_cast<EdgeIndex>(out_targets.size());
  }
  EdgeIndex num_in_arcs() const {
    return static_cast<EdgeIndex>(in_sources.size());
  }
};

/// \brief The distinct sources of `shard`'s boundary in-arcs, ascending
/// global ids, for a partition of a `num_nodes`-node graph. The one
/// derivation of the boundary list: the cut file stores it, the shard
/// worker's handshake ack publishes it, and a shard-local slice build
/// folds exactly these foreign rows.
std::vector<NodeId> BoundarySources(const PartitionShard& shard,
                                    NodeId num_nodes);

/// \brief Per-shard contiguous transition-probability slices, aligned
/// position-for-position with each shard's in-CSR.
///
/// in_probs[s][idx] is the probability of the arc a shard's pull sweep
/// reads at in-CSR position idx — the same value as
/// TransitionMatrix::probs()[shard.in_arc_index[idx]], but laid out so
/// the block solvers' inner loops stream it sequentially instead of
/// gathering through the O(|E|) global arc index (the indirection that
/// costs ~65% at 100k nodes; see results/partition_bench.md). The
/// dangling view (bitmap + ascending list) rides along because the
/// sliced solvers never see a TransitionMatrix at all.
///
/// Built by core/transition_slices.h, either by slicing a resolved
/// whole-graph matrix or locally from each shard's rows plus an O(|V|)
/// broadcast of per-node metric state — the two paths are bitwise
/// identical (tests/partition_slice_test.cc).
struct TransitionSlices {
  NodeId num_nodes = 0;
  /// One contiguous prob slice per shard, sized shard.num_in_arcs().
  std::vector<std::vector<double>> in_probs;
  /// is_dangling[v] != 0 iff node v has no outgoing arcs; size num_nodes.
  std::vector<uint8_t> is_dangling;
  /// Dangling nodes, ascending global ids (the fold order the solvers'
  /// bit-parity contract requires).
  std::vector<NodeId> dangling;
};

/// \brief A complete vertex partition of one graph.
class GraphPartition {
 public:
  /// Partitions `graph` under `options`. InvalidArgument when
  /// options.num_shards == 0; every other input (including the empty
  /// graph and num_shards > num_nodes) produces a valid partition.
  static Result<GraphPartition> Build(const CsrGraph& graph,
                                      const PartitionOptions& options);

  PartitionScheme scheme() const { return scheme_; }
  size_t num_shards() const { return shards_.size(); }
  NodeId num_nodes() const { return num_nodes_; }

  const PartitionShard& shard(size_t index) const { return shards_[index]; }

  /// The shard owning `node` (O(1), closed-form per scheme).
  size_t OwnerOf(NodeId node) const;

  /// OK iff `slices` is shaped for this partition: matching node count,
  /// one prob slice per shard, each sized to that shard's in-CSR, and a
  /// node-sized dangling bitmap. The sliced block solvers call this
  /// before trusting the slice layout.
  Status ValidateSlices(const TransitionSlices& slices) const;

  /// Total cross-shard arcs (each boundary arc counted once, on its
  /// destination's shard).
  EdgeIndex boundary_arcs() const { return boundary_arcs_; }
  /// Fraction of all arcs that cross shards; 0 for arc-free graphs.
  double BoundaryFraction() const;

  /// One-line summary for logs and the CLI.
  std::string ToString() const;

 private:
  GraphPartition() = default;

  PartitionScheme scheme_ = PartitionScheme::kRange;
  NodeId num_nodes_ = 0;
  EdgeIndex boundary_arcs_ = 0;
  std::vector<PartitionShard> shards_;
};

}  // namespace d2pr

#endif  // D2PR_GRAPH_PARTITION_H_
