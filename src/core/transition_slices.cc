#include "core/transition_slices.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/string_util.h"

namespace d2pr {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// log(metric(v)) per node, -inf at metric 0: the exponent input
/// TransitionMatrix::Build derives from the same values.
std::vector<double> LogMetric(std::span<const double> metric_values) {
  std::vector<double> log_metric(metric_values.size());
  for (size_t v = 0; v < metric_values.size(); ++v) {
    log_metric[v] =
        metric_values[v] > 0.0 ? std::log(metric_values[v]) : kNegInf;
  }
  return log_metric;
}

/// One source's out-row as the kernel reads it: ascending global target
/// ids and, when the beta blend needs them, the aligned arc weights.
struct SourceRow {
  std::span<const NodeId> targets;
  std::span<const double> weights;
};

/// The matrix-free slice kernel: `shard`'s in-CSR-aligned probability
/// slice under exponent `p` and blend `beta`.
///
/// The in-CSR can name only the shard's own nodes and its boundary
/// sources, so those are the rows folded: slot k < owned is owned[k],
/// slot owned + b is boundary_sources[b], and row(slot, node) returns
/// that node's out-row. Each row folds in ascending arc order into its
/// normalization state, exactly as TransitionMatrix::Build folds it.
/// The per-arc numerators are recomputed in the fill instead of stored:
/// that trades one exp per arc for never holding O(|E|) state.
/// in_weight(idx) is the weight of the arc at in-CSR position idx, read
/// only when beta > 0. `log_metric` covers every node of the graph.
template <typename RowFn, typename InWeightFn>
std::vector<double> BuildShardSlice(const PartitionShard& shard,
                                    std::span<const NodeId> boundary_sources,
                                    std::span<const double> log_metric,
                                    double p, double beta, RowFn row,
                                    InWeightFn in_weight) {
  const size_t num_owned = shard.owned.size();
  const size_t num_slots = num_owned + boundary_sources.size();
  std::vector<uint32_t> slot_of(log_metric.size());
  std::vector<double> max_exponent(num_slots, kNegInf);
  std::vector<double> row_sum(num_slots, 0.0);
  std::vector<uint8_t> uniform_row(num_slots, 0);
  std::vector<double> strength_total(beta > 0.0 ? num_slots : 0, 0.0);

  for (size_t slot = 0; slot < num_slots; ++slot) {
    const NodeId node = slot < num_owned
                            ? shard.owned[slot]
                            : boundary_sources[slot - num_owned];
    slot_of[static_cast<size_t>(node)] = static_cast<uint32_t>(slot);
    const SourceRow source = row(slot, node);
    if (source.targets.empty()) continue;  // dangling: no row to normalize
    double row_max = kNegInf;
    for (NodeId j : source.targets) {
      row_max = std::max(
          row_max, DecoupledArcExponent(log_metric[static_cast<size_t>(j)], p));
    }
    // Summed left to right, so the denominator is Build's double bit for
    // bit.
    double sum = 0.0;
    for (NodeId j : source.targets) {
      sum += DecoupledArcNumerator(
          DecoupledArcExponent(log_metric[static_cast<size_t>(j)], p),
          row_max);
    }
    if (sum == 0.0) {
      // All destinations vanished in the limit (metric 0, p < 0): the row
      // falls back to uniform, mirroring Build.
      uniform_row[slot] = 1;
      sum = static_cast<double>(source.targets.size());
    }
    max_exponent[slot] = row_max;
    row_sum[slot] = sum;
    if (beta > 0.0) {
      // The ascending-arc-order weight sum CsrGraph::OutStrength performs.
      double theta = 0.0;
      for (double w : source.weights) theta += w;
      strength_total[slot] = theta;
    }
  }

  std::vector<double> slice(shard.in_sources.size());
  for (size_t k = 0; k < num_owned; ++k) {
    const double exponent = DecoupledArcExponent(
        log_metric[static_cast<size_t>(shard.owned[k])], p);
    const size_t begin = static_cast<size_t>(shard.in_offsets[k]);
    const size_t end = static_cast<size_t>(shard.in_offsets[k + 1]);
    for (size_t idx = begin; idx < end; ++idx) {
      const size_t slot =
          slot_of[static_cast<size_t>(shard.in_sources[idx])];
      const double numerator =
          uniform_row[slot]
              ? 1.0
              : DecoupledArcNumerator(exponent, max_exponent[slot]);
      slice[idx] = BlendedArcProb(numerator, row_sum[slot], beta,
                                  beta > 0.0 ? in_weight(idx) : 0.0,
                                  beta > 0.0 ? strength_total[slot] : 0.0);
    }
  }
  return slice;
}

}  // namespace

Result<TransitionSlices> BuildTransitionSlices(
    const GraphPartition& partition, const TransitionMatrix& transition) {
  if (partition.num_nodes() != transition.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("partition covers ", partition.num_nodes(),
               " nodes but transition matrix has ", transition.num_nodes()));
  }
  TransitionSlices slices;
  slices.num_nodes = transition.num_nodes();
  slices.in_probs.resize(partition.num_shards());
  const auto probs = transition.probs();
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    const PartitionShard& shard = partition.shard(s);
    std::vector<double>& slice = slices.in_probs[s];
    slice.resize(shard.in_arc_index.size());
    // A pure permutation copy: position idx of the slice is the
    // probability the sweep used to gather at in_arc_index[idx].
    for (size_t idx = 0; idx < shard.in_arc_index.size(); ++idx) {
      slice[idx] = probs[static_cast<size_t>(shard.in_arc_index[idx])];
    }
  }
  slices.is_dangling.assign(static_cast<size_t>(transition.num_nodes()), 0);
  slices.dangling = transition.DanglingNodes();
  for (NodeId v : slices.dangling) {
    slices.is_dangling[static_cast<size_t>(v)] = 1;
  }
  return slices;
}

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
  const std::vector<double> log_metric =
      LogMetric(MetricValues(graph, ResolveMetric(graph, config.metric)));
  const auto weights =
      beta > 0.0 ? graph.weights() : std::span<const double>{};

  TransitionSlices slices;
  slices.num_nodes = graph.num_nodes();
  slices.in_probs.reserve(partition.num_shards());
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    const PartitionShard& shard = partition.shard(s);
    slices.in_probs.push_back(BuildShardSlice(
        shard, BoundarySources(shard, graph.num_nodes()), log_metric,
        config.p, beta,
        [&](size_t, NodeId node) {
          return SourceRow{graph.OutNeighbors(node),
                           beta > 0.0 ? graph.OutWeights(node)
                                      : std::span<const double>{}};
        },
        [&](size_t idx) {
          return weights[static_cast<size_t>(shard.in_arc_index[idx])];
        }));
  }
  slices.is_dangling.assign(static_cast<size_t>(graph.num_nodes()), 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.OutDegree(v) == 0) {
      slices.is_dangling[static_cast<size_t>(v)] = 1;
      slices.dangling.push_back(v);
    }
  }
  return slices;
}

Result<std::vector<double>> BuildShardSliceFromCut(
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
    // would fold into NaN probabilities (+inf at p = 0 gives -0 * inf),
    // or silently read as metric 0 (NaN, negatives).
    if (!std::isfinite(metric_values[v]) || metric_values[v] < 0.0) {
      return Status::InvalidArgument(
          StrCat("metric value of node ", v, " is ", metric_values[v],
                 "; metrics must be finite and >= 0"));
    }
  }
  const double beta = cut.meta.weighted ? config.beta : 0.0;
  const size_t num_owned = cut.shard.owned.size();
  const auto out_targets = std::span<const NodeId>(cut.shard.out_targets);
  const auto ghost_targets = std::span<const NodeId>(cut.ghost_targets);
  // Owned rows come from the cut's out-CSR, boundary rows from its ghost
  // rows: those sources' rows verbatim, in row order.
  return BuildShardSlice(
      cut.shard, cut.boundary_sources, LogMetric(metric_values), config.p,
      beta,
      [&](size_t slot, NodeId) {
        const bool owned = slot < num_owned;
        const size_t r = owned ? slot : slot - num_owned;
        const auto& offsets = owned ? cut.shard.out_offsets : cut.ghost_offsets;
        const size_t begin = static_cast<size_t>(offsets[r]);
        const size_t count = static_cast<size_t>(offsets[r + 1]) - begin;
        SourceRow source{(owned ? out_targets : ghost_targets)
                             .subspan(begin, count),
                         {}};
        if (beta > 0.0) {
          source.weights =
              std::span<const double>(owned ? cut.out_weights
                                            : cut.ghost_weights)
                  .subspan(begin, count);
        }
        return source;
      },
      [&](size_t idx) { return cut.in_weights[idx]; });
}

}  // namespace d2pr
