// The one sweep kernel of the factored D2PR operator (core/transition.h).
//
// Applying T = diag(u)·Aᵀ·diag(c) to x is three steps: the per-source
// products y = c∘x (and, when present, the sink term's sink_c∘x and the
// blend term's blend_c∘x), a sum of y along each destination's in-arcs,
// and one u∘ pass. The whole-graph solves scatter y along out-rows
// (ScatterColumns, under TransitionMatrix::Multiply and the power solvers
// of core/pagerank.h); the block solvers (core/block_solver.h) and the
// shard workers (dist/shard_worker.h) gather it along in-rows.
// Every path folds a destination's terms in ascending global source order
// from +0.0, each term is the same single product, and every path ends in
// FinishDestination, so the three forms agree bit for bit by
// construction.
//
// Gauss-Seidel sweeps read a live iterate, so they multiply c by x per
// arc (PullLive) instead of precomputing y; the product is the same
// double either way.

#ifndef D2PR_CORE_TRANSITION_KERNEL_H_
#define D2PR_CORE_TRANSITION_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/transition.h"

namespace d2pr {

/// \brief The destination pass every form ends with: u_dst times the
/// in-row sum, plus the blend term's sum when β > 0.
inline double FinishDestination(const TransitionFactors& f, size_t dst,
                                double sum, double blend_sum) {
  const double value = f.u[dst] * sum;
  return f.has_blend() ? value + blend_sum : value;
}

/// \brief Scatter form over a whole graph, for W columns in one pass over
/// the arcs, each column with its own factors f[k] (indexed by node id).
/// x, sums and blend_sums are row-major: x[i * W + k] is column k's value
/// at node i. sums[j * W + k] (and blend_sums[j * W + k] under column k's
/// β blend) receive column k's y terms of j's in-arcs in ascending source
/// order, from +0.0; FinishDestination(*f[k], j, sums[j * W + k],
/// blend_sums[j * W + k]) then completes (T·x)[j]. The columns never mix,
/// so SIMD across them changes no bit, and every width gives each column
/// the bits of the one-column pass. blend_sums is non-empty when any
/// column has the blend term; a column without it folds +0.0 terms there
/// that it never reads.
template <size_t W>
void ScatterColumns(const CsrGraph& graph, const TransitionFactors* const* f,
                    std::span<const double> x, std::span<double> sums,
                    std::span<double> blend_sums) {
  const double* c[W];
  const uint8_t* sink[W];  // null without a sink term
  const double* sink_c[W];
  const double* blend_c[W];  // null when β = 0
  bool any_sink = false;
  for (size_t k = 0; k < W; ++k) {
    c[k] = f[k]->c.data();
    sink[k] = f[k]->has_sink() ? f[k]->sink.data() : nullptr;
    sink_c[k] = f[k]->sink_c.data();
    blend_c[k] = f[k]->has_blend() ? f[k]->blend_c.data() : nullptr;
    any_sink = any_sink || sink[k] != nullptr;
  }
  const bool any_blend = !blend_sums.empty();
  std::fill(sums.begin(), sums.end(), 0.0);
  std::fill(blend_sums.begin(), blend_sums.end(), 0.0);
  const NodeId* targets = graph.targets().data();
  const double* weights = any_blend ? graph.weights().data() : nullptr;
  const size_t n = x.size() / W;
  // Scatter y_i = c_i·x_i along each row in ascending source order: the
  // order the gather form folds each destination's in-row. A zero x_i
  // adds only +0.0 terms there, so skipping a source whose columns are
  // all zero changes no bit.
  for (size_t i = 0; i < n; ++i) {
    const double* xi = &x[i * W];
    bool all_zero = true;
    for (size_t k = 0; k < W; ++k) all_zero = all_zero && xi[k] == 0.0;
    if (all_zero) continue;
    const NodeId row = static_cast<NodeId>(i);
    const size_t begin = static_cast<size_t>(graph.ArcBegin(row));
    const size_t end = begin + static_cast<size_t>(graph.OutDegree(row));
    double y[W];
    for (size_t k = 0; k < W; ++k) y[k] = c[k][i] * xi[k];
    if (!any_sink && !any_blend) {
      for (size_t e = begin; e < end; ++e) {
        double* out = &sums[static_cast<size_t>(targets[e]) * W];
        for (size_t k = 0; k < W; ++k) out[k] += y[k];
      }
      continue;
    }
    double y_sink[W];
    double y_blend[W];
    for (size_t k = 0; k < W; ++k) {
      y_sink[k] = sink[k] != nullptr ? sink_c[k][i] * xi[k] : 0.0;
      y_blend[k] = blend_c[k] != nullptr ? blend_c[k][i] * xi[k] : 0.0;
    }
    for (size_t e = begin; e < end; ++e) {
      const size_t j = static_cast<size_t>(targets[e]);
      double* out = &sums[j * W];
      for (size_t k = 0; k < W; ++k) {
        out[k] += sink[k] != nullptr && sink[k][j] ? y_sink[k] : y[k];
      }
      if (any_blend) {
        double* blend = &blend_sums[j * W];
        for (size_t k = 0; k < W; ++k) blend[k] += weights[e] * y_blend[k];
      }
    }
  }
}

/// \brief One sweep's per-source products, indexed like the factors'
/// source side.
struct SourceProducts {
  std::vector<double> y;        ///< c∘x
  std::vector<double> y_sink;   ///< sink_c∘x; empty without a sink term
  std::vector<double> y_blend;  ///< blend_c∘x; empty when β = 0

  /// Recomputes the products for source values `x`.
  void Compute(const TransitionFactors& f, std::span<const double> x) {
    const size_t count = x.size();
    y.resize(count);
    for (size_t i = 0; i < count; ++i) y[i] = f.c[i] * x[i];
    y_sink.resize(f.has_sink() ? count : 0);
    for (size_t i = 0; i < y_sink.size(); ++i) y_sink[i] = f.sink_c[i] * x[i];
    y_blend.resize(f.has_blend() ? count : 0);
    for (size_t i = 0; i < y_blend.size(); ++i) {
      y_blend[i] = f.blend_c[i] * x[i];
    }
  }
};

/// \brief Gather form over precomputed products: T·x at destination
/// `dst`, whose in-arcs occupy positions [begin, end). source(idx) maps an
/// in-arc to its index into the products; weight(idx) is its arc weight,
/// called only when β > 0.
template <typename SourceFn, typename WeightFn>
inline double PullProducts(const TransitionFactors& f,
                           const SourceProducts& products, size_t dst,
                           size_t begin, size_t end, SourceFn source,
                           WeightFn weight) {
  const double* y = f.has_sink() && f.sink[dst] ? products.y_sink.data()
                                                : products.y.data();
  double sum = 0.0;
  for (size_t idx = begin; idx < end; ++idx) sum += y[source(idx)];
  double blend_sum = 0.0;
  if (f.has_blend()) {
    for (size_t idx = begin; idx < end; ++idx) {
      blend_sum += weight(idx) * products.y_blend[source(idx)];
    }
  }
  return FinishDestination(f, dst, sum, blend_sum);
}

/// \brief Gather form over live source values: as PullProducts, with
/// value(idx) the current value of in-arc idx's source.
template <typename SourceFn, typename ValueFn, typename WeightFn>
inline double PullLive(const TransitionFactors& f, size_t dst, size_t begin,
                       size_t end, SourceFn source, ValueFn value,
                       WeightFn weight) {
  const double* scale = f.SourceScale(dst);
  double sum = 0.0;
  for (size_t idx = begin; idx < end; ++idx) {
    sum += scale[source(idx)] * value(idx);
  }
  double blend_sum = 0.0;
  if (f.has_blend()) {
    for (size_t idx = begin; idx < end; ++idx) {
      blend_sum += weight(idx) * (f.blend_c[source(idx)] * value(idx));
    }
  }
  return FinishDestination(f, dst, sum, blend_sum);
}

}  // namespace d2pr

#endif  // D2PR_CORE_TRANSITION_KERNEL_H_
