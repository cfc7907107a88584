// Shard-local transition slices: the per-arc probabilities each
// partition shard streams during a block sweep, materialized contiguously
// in the shard's in-CSR order (graph/partition.h declares the
// TransitionSlices container; this header owns its construction).
//
// Why slices exist: the original block sweep read
// `probs[shard.in_arc_index[idx]]` — a gather through the O(|E|) global
// arc index whose random stride defeats the hardware prefetcher once the
// arc arrays leave L2 (~65% overhead at 100k nodes,
// results/partition_bench.md). A slice turns that gather into a
// sequential read, restoring streaming (and SIMD-friendly) inner loops.
//
// Two builders, bitwise identical to each other:
//
//   * BuildTransitionSlices — permute a resolved whole-graph
//     TransitionMatrix through the partition's arc index. One copy, no
//     arithmetic: in_probs[s][idx] = probs[in_arc_index[idx]]. Serving
//     uses this: the matrix stays cacheable and persistable.
//   * the matrix-free kernel — one shard's slice from the O(|V|) global
//     metric vector plus the rows the shard's in-CSR names: its owned
//     rows and the rows of its boundary sources. It folds each of those
//     rows into its normalization state (softmax max, row sum,
//     uniform-fallback flag, out-strength for the beta blend) and then
//     streams the in-CSR, recomputing each arc's probability through the
//     same out-of-line arc kernel TransitionMatrix::Build uses
//     (DecoupledArcExponent / DecoupledArcNumerator / BlendedArcProb), so
//     every float matches the matrix path bit for bit. No whole-graph
//     TransitionMatrix is ever materialized (a test pins this via
//     TransitionMatrix::BuildCount()). BuildShardSliceFromCut runs it
//     over a shard cut — the deployment path of the pre-cut shard fleet
//     (dist/shard_worker.h); BuildTransitionSlicesLocal runs it once per
//     shard, reading rows straight from a CsrGraph.
//
// Both also carry the dangling view (ascending list + bitmap) so the
// sliced block solvers never need a TransitionMatrix at all.

#ifndef D2PR_CORE_TRANSITION_SLICES_H_
#define D2PR_CORE_TRANSITION_SLICES_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "core/transition.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {

/// \brief The slice-build field of the shard handshake (net/shard_wire.h).
/// Shard workers build their slices matrix-free and accept only
/// kSubgraph; kFromMatrix survives so the wire value keeps its meaning.
enum class SliceBuild {
  kFromMatrix,
  kSubgraph,
};

/// \brief Slices `transition` through `partition`'s in-CSR arc index.
/// InvalidArgument when the node counts disagree.
Result<TransitionSlices> BuildTransitionSlices(
    const GraphPartition& partition, const TransitionMatrix& transition);

/// \brief Builds every shard's slice with the matrix-free kernel under
/// `config`, never materializing a whole-graph TransitionMatrix. Rejects
/// exactly the configs TransitionMatrix::Build rejects (shared
/// validation), plus a partition/graph node-count mismatch. The result is
/// bitwise identical to BuildTransitionSlices over
/// TransitionMatrix::Build(graph, config). The partition's out-CSR is not
/// needed.
Result<TransitionSlices> BuildTransitionSlicesLocal(
    const CsrGraph& graph, const GraphPartition& partition,
    const TransitionConfig& config);

/// \brief Builds ONE shard's probability slice from a loaded cut file and
/// the broadcast global metric vector — no CsrGraph, no GraphPartition,
/// no whole-graph anything (every shard worker's build path).
///
/// `metric_values` is the full O(|V|) per-node metric vector
/// (MetricValues on the coordinator side, shipped in the solve-begin
/// frame); it must hold exactly cut.meta.num_nodes values. The returned
/// vector is aligned with cut.shard.in_sources — bitwise identical to
/// the matrix path's in_probs[shard] for the same graph, scheme, and
/// config, because boundary rows fold over the cut's ghost rows, which
/// are those sources' rows verbatim.
///
/// Rejects exactly what the whole-graph builders reject (shared
/// validation against cut.meta.weighted), a wrong-sized metric vector,
/// and any metric value that is not finite and >= 0 (InvalidArgument).
Result<std::vector<double>> BuildShardSliceFromCut(
    const ShardCut& cut, std::span<const double> metric_values,
    const TransitionConfig& config);

}  // namespace d2pr

#endif  // D2PR_CORE_TRANSITION_SLICES_H_
