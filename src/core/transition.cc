#include "core/transition.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "core/transition_kernel.h"

namespace d2pr {

namespace {

/// Successful whole-graph materializations (see BuildCount()).
std::atomic<uint64_t> g_build_count{0};

/// The widest exponent span whose smallest factor exp(-span) is still a
/// normal double: -ln(DBL_MIN).
const double kMaxExponentSpan = -std::log(std::numeric_limits<double>::min());

}  // namespace

Status BuildDestinationFactors(std::span<const double> metric_values,
                               double p, TransitionFactors* factors) {
  const size_t n = metric_values.size();
  // The exponent -p·ln m of every node with metric > 0, kept in u until
  // the exp pass below, and its range.
  double max_exponent = -std::numeric_limits<double>::infinity();
  double min_exponent = std::numeric_limits<double>::infinity();
  bool has_zero_metric = false;
  factors->u.resize(n);
  for (size_t v = 0; v < n; ++v) {
    const double m = metric_values[v];
    if (m > 0.0) {
      const double exponent = -p * std::log(m);
      factors->u[v] = exponent;
      max_exponent = std::max(max_exponent, exponent);
      min_exponent = std::min(min_exponent, exponent);
    } else {
      has_zero_metric = true;
    }
  }
  // At p = 0 every node weighs 1, metric 0 included (0^0 := 1).
  const bool sink_term = p != 0.0 && has_zero_metric;
  factors->sink.assign(sink_term ? n : 0, 0);
  for (size_t v = 0; v < n; ++v) {
    if (metric_values[v] > 0.0 && p != 0.0) {
      const double u = std::exp(factors->u[v] - max_exponent);
      if (!(u >= std::numeric_limits<double>::min())) {
        return Status::OutOfRange(StrCat(
            "exponent span |p|*ln(max metric / min metric) = ",
            max_exponent - min_exponent, " at p = ", p,
            " leaves the transition factors outside the normal double "
            "range (the span must stay below -ln(DBL_MIN) = ",
            kMaxExponentSpan, ")"));
      }
      factors->u[v] = u;
    } else {
      factors->u[v] = 1.0;
      // A sink's row share lives in sink_c; its destination scale is 1.
      if (sink_term) factors->sink[v] = 1;
    }
  }
  return Status::OK();
}

SourceFactors FoldSourceRow(std::span<const NodeId> targets,
                            std::span<const double> weights,
                            const TransitionFactors& destinations, double p,
                            double beta) {
  // Z_i over the non-sink targets, left to right, and the sink count.
  double z = 0.0;
  size_t sinks = 0;
  for (NodeId j : targets) {
    const size_t k = static_cast<size_t>(j);
    if (destinations.has_sink() && destinations.sink[k]) {
      ++sinks;
    } else {
      z += destinations.u[k];
    }
  }
  SourceFactors row;
  if (sinks > 0 && (p > 0.0 || z == 0.0)) {
    // Flagged: the sinks take the row (p > 0), or every target is a sink
    // and the row is uniform over them (p < 0).
    row.sink_c = (1.0 - beta) / static_cast<double>(sinks);
  } else {
    row.c = (1.0 - beta) / z;
  }
  if (beta > 0.0) {
    // The ascending-arc-order sum CsrGraph::OutStrength performs.
    double theta = 0.0;
    for (double w : weights) theta += w;
    row.blend_c = beta / theta;
  }
  return row;
}

Status ValidateTransitionConfig(const CsrGraph& graph,
                                const TransitionConfig& config) {
  return ValidateTransitionConfig(graph.weighted(), config);
}

Status ValidateTransitionConfig(bool weighted,
                                const TransitionConfig& config) {
  if (!std::isfinite(config.p)) {
    return Status::InvalidArgument(
        StrCat("de-coupling weight p must be finite, got ", config.p));
  }
  if (config.beta < 0.0 || config.beta > 1.0) {
    return Status::InvalidArgument(
        StrCat("beta must lie in [0, 1], got ", config.beta));
  }
  const DegreeMetric metric = ResolveMetric(weighted, config.metric);
  if (metric == DegreeMetric::kOutStrength && !weighted) {
    return Status::InvalidArgument(
        "kOutStrength metric requires a weighted graph");
  }
  return Status::OK();
}

DegreeMetric ResolveMetric(const CsrGraph& graph, DegreeMetric metric) {
  return ResolveMetric(graph.weighted(), metric);
}

DegreeMetric ResolveMetric(bool weighted, DegreeMetric metric) {
  if (metric != DegreeMetric::kAuto) return metric;
  return weighted ? DegreeMetric::kOutStrength : DegreeMetric::kOutDegree;
}

std::vector<double> MetricValues(const CsrGraph& graph, DegreeMetric metric) {
  const DegreeMetric resolved = ResolveMetric(graph, metric);
  const NodeId n = graph.num_nodes();
  std::vector<double> values(n);
  switch (resolved) {
    case DegreeMetric::kOutDegree:
      for (NodeId v = 0; v < n; ++v) {
        values[v] = static_cast<double>(graph.OutDegree(v));
      }
      break;
    case DegreeMetric::kOutStrength:
      for (NodeId v = 0; v < n; ++v) values[v] = graph.OutStrength(v);
      break;
    case DegreeMetric::kInDegree: {
      const std::vector<EdgeIndex> in = graph.InDegrees();
      for (NodeId v = 0; v < n; ++v) values[v] = static_cast<double>(in[v]);
      break;
    }
    case DegreeMetric::kAuto:
      D2PR_CHECK(false) << "kAuto must be resolved";
  }
  return values;
}

TransitionMatrix::TransitionMatrix(TransitionFactors factors,
                                   std::vector<uint8_t> dangling,
                                   EdgeIndex num_arcs)
    : factors_(std::move(factors)),
      dangling_(std::move(dangling)),
      num_arcs_(num_arcs) {}

Result<TransitionMatrix> TransitionMatrix::Build(
    const CsrGraph& graph, const TransitionConfig& config) {
  D2PR_RETURN_NOT_OK(ValidateTransitionConfig(graph, config));
  // On unweighted graphs connection strength is uniform, which equals the
  // p = 0 de-coupled matrix; folding beta into 0 keeps one code path.
  const double beta = graph.weighted() ? config.beta : 0.0;
  const NodeId n = graph.num_nodes();

  TransitionFactors factors;
  D2PR_RETURN_NOT_OK(BuildDestinationFactors(
      MetricValues(graph, ResolveMetric(graph, config.metric)), config.p,
      &factors));
  factors.c.assign(static_cast<size_t>(n), 0.0);
  if (factors.has_sink()) factors.sink_c.assign(static_cast<size_t>(n), 0.0);
  if (beta > 0.0) factors.blend_c.assign(static_cast<size_t>(n), 0.0);
  std::vector<uint8_t> dangling(static_cast<size_t>(n), 0);
  for (NodeId i = 0; i < n; ++i) {
    const size_t row = static_cast<size_t>(i);
    if (graph.OutDegree(i) == 0) {
      dangling[row] = 1;
      continue;
    }
    const SourceFactors source = FoldSourceRow(
        graph.OutNeighbors(i),
        beta > 0.0 ? graph.OutWeights(i) : std::span<const double>{}, factors,
        config.p, beta);
    factors.c[row] = source.c;
    if (factors.has_sink()) factors.sink_c[row] = source.sink_c;
    if (beta > 0.0) factors.blend_c[row] = source.blend_c;
  }

  g_build_count.fetch_add(1, std::memory_order_relaxed);
  return TransitionMatrix(std::move(factors), std::move(dangling),
                          graph.num_arcs());
}

uint64_t TransitionMatrix::BuildCount() {
  return g_build_count.load(std::memory_order_relaxed);
}

std::vector<NodeId> TransitionMatrix::DanglingNodes() const {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (dangling_[static_cast<size_t>(v)]) nodes.push_back(v);
  }
  return nodes;
}

void TransitionMatrix::Multiply(const CsrGraph& graph,
                                std::span<const double> x,
                                std::span<double> out) const {
  const size_t n = static_cast<size_t>(num_nodes());
  D2PR_CHECK_EQ(x.size(), n);
  D2PR_CHECK_EQ(out.size(), n);
  for (double v : x) D2PR_CHECK(!(v < 0.0)) << "x must be non-negative";
  const WholeGraphInRows in_rows(graph);
  const TransitionFactors* columns[1] = {&factors_};
  GatherScratch scratch;
  scratch.Reset(columns, 1, n);
  GatherColumns<1>(in_rows.rows(), columns, x, scratch,
                   [&](size_t j, const double* sums, const double* blend_sums) {
                     out[j] = FinishDestination(factors_, j, sums[0],
                                                blend_sums[0]);
                   });
}

double TransitionMatrix::Prob(const CsrGraph& graph, NodeId u,
                              NodeId v) const {
  auto row = graph.OutNeighbors(u);
  auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return 0.0;
  return Row(graph, u).Prob(graph.ArcBegin(u) + (it - row.begin()));
}

}  // namespace d2pr
