#include "core/transition_slices.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/string_util.h"

namespace d2pr {

namespace {

/// Sizes `factors`' source side for `count` sources, sink and blend terms
/// included as the destination side and `beta` call for.
void SizeSources(size_t count, double beta, TransitionFactors* factors) {
  factors->c.assign(count, 0.0);
  factors->sink_c.assign(factors->has_sink() ? count : 0, 0.0);
  factors->blend_c.assign(beta > 0.0 ? count : 0, 0.0);
}

/// Writes one source's folded row into position `slot` of `factors`.
void StoreSource(const SourceFactors& source, size_t slot,
                 TransitionFactors* factors) {
  factors->c[slot] = source.c;
  if (factors->has_sink()) factors->sink_c[slot] = source.sink_c;
  if (factors->has_blend()) factors->blend_c[slot] = source.blend_c;
}

}  // namespace

Result<TransitionSlices> BuildTransitionSlicesLocal(
    const CsrGraph& graph, const GraphPartition& partition,
    const TransitionConfig& config) {
  D2PR_RETURN_NOT_OK(ValidateTransitionConfig(graph, config));
  if (partition.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("partition covers ", partition.num_nodes(),
               " nodes but the graph has ", graph.num_nodes()));
  }
  // Beta folds to 0 on unweighted graphs, exactly as in
  // TransitionMatrix::Build (see the comment there).
  const double beta = graph.weighted() ? config.beta : 0.0;
  const NodeId n = graph.num_nodes();
  TransitionFactors factors;
  D2PR_RETURN_NOT_OK(BuildDestinationFactors(
      MetricValues(graph, ResolveMetric(graph, config.metric)), config.p,
      &factors));
  SizeSources(static_cast<size_t>(n), beta, &factors);

  // Each shard folds the rows its in-CSR names: its owned rows and its
  // boundary sources' rows. A source several shards read is folded once.
  std::vector<uint8_t> folded(static_cast<size_t>(n), 0);
  const auto fold = [&](NodeId node) {
    const size_t v = static_cast<size_t>(node);
    if (folded[v] || graph.OutDegree(node) == 0) return;
    folded[v] = 1;
    StoreSource(FoldSourceRow(graph.OutNeighbors(node),
                              beta > 0.0 ? graph.OutWeights(node)
                                         : std::span<const double>{},
                              factors, config.p, beta),
                v, &factors);
  };
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    const PartitionShard& shard = partition.shard(s);
    for (NodeId node : shard.owned) fold(node);
    for (NodeId node : BoundarySources(shard, n)) fold(node);
  }

  std::vector<uint8_t> dangling(static_cast<size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    dangling[static_cast<size_t>(v)] = graph.OutDegree(v) == 0 ? 1 : 0;
  }
  TransitionSlices slices;
  slices.transition = std::make_shared<const TransitionMatrix>(
      std::move(factors), std::move(dangling), graph.num_arcs());
  if (beta > 0.0) slices.arc_weights = graph.weights();
  return slices;
}

Result<TransitionFactors> BuildShardSliceFromCut(
    const ShardCut& cut, std::span<const double> metric_values,
    const TransitionConfig& config) {
  D2PR_RETURN_NOT_OK(ValidateTransitionConfig(cut.meta.weighted, config));
  if (metric_values.size() != static_cast<size_t>(cut.meta.num_nodes)) {
    return Status::InvalidArgument(
        StrCat("metric vector holds ", metric_values.size(),
               " values but the cut's graph has ", cut.meta.num_nodes,
               " nodes"));
  }
  for (size_t v = 0; v < metric_values.size(); ++v) {
    // A degree or strength is finite and non-negative. Anything else
    // would fold into NaN factors (ln of +inf or of a negative), or
    // silently read as metric 0 (NaN, negatives).
    if (!std::isfinite(metric_values[v]) || metric_values[v] < 0.0) {
      return Status::InvalidArgument(
          StrCat("metric value of node ", v, " is ", metric_values[v],
                 "; metrics must be finite and >= 0"));
    }
  }
  const double beta = cut.meta.weighted ? config.beta : 0.0;
  // u and the sink flags over every node (a row's targets may be any
  // node), with the whole graph's global shift.
  TransitionFactors global;
  D2PR_RETURN_NOT_OK(
      BuildDestinationFactors(metric_values, config.p, &global));

  const PartitionShard& shard = cut.shard;
  const size_t num_owned = shard.owned.size();
  TransitionFactors factors;
  factors.u.reserve(num_owned);
  for (NodeId v : shard.owned) {
    factors.u.push_back(global.u[static_cast<size_t>(v)]);
  }
  if (global.has_sink()) {
    factors.sink.reserve(num_owned);
    for (NodeId v : shard.owned) {
      factors.sink.push_back(global.sink[static_cast<size_t>(v)]);
    }
  }
  SizeSources(num_owned + cut.boundary_sources.size(), beta, &factors);

  // Owned rows come from the cut's out-CSR, boundary rows from its ghost
  // rows: those sources' rows verbatim, in row order.
  const auto fold_rows = [&](const std::vector<EdgeIndex>& offsets,
                             const std::vector<NodeId>& targets,
                             const std::vector<double>& weights,
                             size_t first_slot) {
    for (size_t r = 0; r + 1 < offsets.size(); ++r) {
      const size_t begin = static_cast<size_t>(offsets[r]);
      const size_t count = static_cast<size_t>(offsets[r + 1]) - begin;
      if (count == 0) continue;  // dangling: c stays 0
      StoreSource(
          FoldSourceRow(std::span<const NodeId>(targets).subspan(begin, count),
                        beta > 0.0 ? std::span<const double>(weights).subspan(
                                         begin, count)
                                   : std::span<const double>{},
                        global, config.p, beta),
          first_slot + r, &factors);
    }
  };
  fold_rows(shard.out_offsets, shard.out_targets, cut.out_weights, 0);
  fold_rows(cut.ghost_offsets, cut.ghost_targets, cut.ghost_weights,
            num_owned);
  return factors;
}

}  // namespace d2pr
