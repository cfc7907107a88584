// Transition slices: what a block sweep over a partition reads of the
// factored transition (core/transition.h).
//
// The operator is diag(u)·Aᵀ·diag(c), so a shard's sweep needs no
// per-arc probabilities: its in-CSR (graph/partition.h), u over its
// owned destinations and c over its in-arc sources, plus the arc weights
// when the β blend is on. Nothing here is a per-arc copy.
//
//   * TransitionSlices — the in-process block power solver's input
//     (core/block_solver.h): whole-graph factors plus the graph's arc
//     weights for the blend. BuildTransitionSlicesLocal computes u from
//     the O(|V|) metric vector and c over each shard's sources (its
//     owned rows and its boundary sources' rows), without calling
//     TransitionMatrix::Build (a test pins this via
//     TransitionMatrix::BuildCount()).
//   * BuildShardSliceFromCut — one shard's factors from a loaded cut and
//     the broadcast metric vector, indexed the way a shard worker
//     (dist/shard_worker.h) sweeps: destinations by owned position,
//     sources by [owned | boundary] slot. Boundary rows fold over the
//     cut's ghost rows, which are those sources' rows verbatim.
//
// Every builder computes u with one global shift and folds each row
// with the same out-of-line functions as TransitionMatrix::Build
// (BuildDestinationFactors, FoldSourceRow), so every factor a shard
// reads is bitwise the whole-graph factor.

#ifndef D2PR_CORE_TRANSITION_SLICES_H_
#define D2PR_CORE_TRANSITION_SLICES_H_

#include <memory>
#include <span>

#include "common/result.h"
#include "core/transition.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {

/// \brief The factored transition as the in-process block power solver
/// reads it through a partition's in-CSR.
struct TransitionSlices {
  /// The whole-graph factors and dangling bitmap, indexed by node id.
  std::shared_ptr<const TransitionMatrix> transition;
  /// The graph's arc weights in CSR order, read through each shard's
  /// in_arc_index by the β blend; empty when the blend is off. Borrowed:
  /// the graph must outlive the slices.
  std::span<const double> arc_weights;

  NodeId num_nodes() const {
    return transition == nullptr ? 0 : transition->num_nodes();
  }
};

/// \brief Builds the slices shard by shard under `config`, without
/// calling TransitionMatrix::Build. Rejects exactly the configs
/// TransitionMatrix::Build rejects (shared validation and range check),
/// plus a partition/graph node-count mismatch. The factors are bitwise
/// those of TransitionMatrix::Build(graph, config).
Result<TransitionSlices> BuildTransitionSlicesLocal(
    const CsrGraph& graph, const GraphPartition& partition,
    const TransitionConfig& config);

/// \brief Builds ONE shard's factors from a loaded cut file and the
/// broadcast global metric vector — no CsrGraph, no GraphPartition
/// (every shard worker's build path).
///
/// `metric_values` is the full O(|V|) per-node metric vector
/// (MetricValues on the coordinator side, shipped in the solve-begin
/// frame); it must hold exactly cut.meta.num_nodes values. In the result,
/// u and sink are indexed by owned position, c, sink_c and blend_c by
/// slot: owned rows first, then cut.boundary_sources in order.
///
/// Rejects exactly what the whole-graph builders reject (shared
/// validation against cut.meta.weighted, the same OutOfRange), a
/// wrong-sized metric vector, and any metric value that is not finite
/// and >= 0 (InvalidArgument).
Result<TransitionFactors> BuildShardSliceFromCut(
    const ShardCut& cut, std::span<const double> metric_values,
    const TransitionConfig& config);

}  // namespace d2pr

#endif  // D2PR_CORE_TRANSITION_SLICES_H_
