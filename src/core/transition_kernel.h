// The one sweep kernel of the factored D2PR operator (core/transition.h).
//
// Applying T = diag(u)·Aᵀ·diag(c) to x is three steps: the per-source
// products y = c∘x (and, when present, the sink term's sink_c∘x and the
// blend term's blend_c∘x), a sum of y along each destination's in-arcs,
// and one u∘ pass. The whole-graph solve scatters y along out-rows
// (ScatterProducts, under TransitionMatrix::Multiply and SolvePagerank);
// the block solvers (core/block_solver.h) and the shard workers
// (dist/shard_worker.h) gather it along in-rows.
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

/// \brief Scatter form over a whole graph: sums[j] (and blend_sums[j]
/// under the β blend; empty otherwise) receive the y terms of j's in-arcs
/// in ascending source order, from +0.0. FinishDestination(f, j, sums[j],
/// blend_sums[j]) then completes (T·x)[j]. The factors are indexed by
/// node id.
void ScatterProducts(const CsrGraph& graph, const TransitionFactors& f,
                     std::span<const double> x, std::span<double> sums,
                     std::span<double> blend_sums);

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
