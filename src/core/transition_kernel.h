// The one sweep kernel of the factored D2PR operator (core/transition.h).
//
// Applying T = diag(u)·Aᵀ·diag(c) to x is three steps: the per-source
// products y = c∘x (and, when present, the sink term's sink_c∘x and the
// blend term's blend_c∘x), a sum of y along each destination's in-arcs,
// and one u∘ pass. Every path gathers: the whole-graph solves
// (GatherColumns, under TransitionMatrix::Multiply and the power solvers
// of core/pagerank.h) along the graph's in-rows (WholeGraphInRows), the
// block solvers (PullRows, under core/block_solver.h's BlockSweep) and the
// shard workers (dist/shard_worker.h) along a shard's in-CSR. Every path
// folds a destination's terms in ascending global source order from
// +0.0, each term is the same single product, and every path ends in the
// same u∘ multiply and blend add (FinishDestination, or PullRows' own
// last lines), so all of them agree bit for bit by construction.
//
// Gauss-Seidel sweeps read a live iterate, so they multiply c by x per
// arc (PullRows over PullArrays::Live) instead of precomputing y; the
// product is the same double either way. PullRows takes the
// transition's terms as template arguments, so a sweep decides them
// once per call rather than per row; GatherColumns decides its sink term
// once per call the same way. A power sweep pulls four rows at a time:
// their folds interleave, each still in its own order, so one row's
// add chain and its unpredictable loop exit no longer hold up the next.

#ifndef D2PR_CORE_TRANSITION_KERNEL_H_
#define D2PR_CORE_TRANSITION_KERNEL_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
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

/// \brief The in-rows of a whole graph, each listing a destination's
/// sources in ascending order, with the arc weights aligned. An
/// undirected graph's out-rows are its in-rows: CsrGraph stores both arcs
/// of every edge with one weight (GraphBuilder merges duplicates in
/// insertion order), rows sorted and unique, a self-loop once. A directed
/// graph pays one Transpose(), whose rows come out ascending.
class WholeGraphInRows {
 public:
  explicit WholeGraphInRows(const CsrGraph& graph)
      : transpose_(graph.directed() ? graph.Transpose() : CsrGraph()),
        rows_(graph.directed() ? &transpose_ : &graph) {}
  WholeGraphInRows(const WholeGraphInRows&) = delete;
  WholeGraphInRows& operator=(const WholeGraphInRows&) = delete;

  const CsrGraph& rows() const { return *rows_; }

 private:
  CsrGraph transpose_;  // empty for an undirected graph
  const CsrGraph* rows_;
};

/// \brief The buffers GatherColumns fills and reads, kept across the
/// sweeps of one set of columns.
///
/// With a sink term, the products carry it in their sign. A source row
/// has at most one of c and sink_c non-zero (FoldSourceRow), so with
/// scale = -sink_c on the rows where sink_c > 0 and c elsewhere, y =
/// scale∘x holds c·x or -(sink_c·x) for x >= 0: the same single product,
/// up to an exact negation. A term counts at a destination when its sign
/// matches the destination's sink flag (+ at an ordinary destination, -
/// at a sink); every other term is one the arc would add as +0.0 (c = 0
/// on flagged rows, sink_c = 0 elsewhere).
struct GatherScratch {
  std::vector<double> y;        ///< scale∘x, row-major
  std::vector<double> y_blend;  ///< blend_c∘x; empty unless a column has β
  /// Row-major scale of the columns when some column has the sink term
  /// (empty otherwise, when scale is just c).
  std::vector<double> scale;
  /// Bit k of sink_mask[j]: column k flags destination j as a sink.
  /// Empty unless some column has the sink term.
  std::vector<uint8_t> sink_mask;

  /// Sizes the buffers for columns f[0 .. width) over num_nodes nodes and
  /// lays out their sink term. Call it whenever the columns change.
  void Reset(const TransitionFactors* const* f, size_t width,
             size_t num_nodes) {
    bool any_blend = false;
    bool any_sink = false;
    for (size_t k = 0; k < width; ++k) {
      any_blend = any_blend || f[k]->has_blend();
      any_sink = any_sink || f[k]->has_sink();
    }
    y.resize(num_nodes * width);
    y_blend.resize(any_blend ? num_nodes * width : 0);
    scale.resize(any_sink ? num_nodes * width : 0);
    sink_mask.assign(any_sink ? num_nodes : 0, 0);
    if (!any_sink) return;
    for (size_t i = 0; i < num_nodes; ++i) {
      for (size_t k = 0; k < width; ++k) {
        const TransitionFactors& factors = *f[k];
        scale[i * width + k] = factors.has_sink() && factors.sink_c[i] > 0.0
                                   ? -factors.sink_c[i]
                                   : factors.c[i];
        if (factors.has_sink() && factors.sink[i]) {
          sink_mask[i] = static_cast<uint8_t>(sink_mask[i] | (1u << k));
        }
      }
    }
  }
};

/// \brief Gather form over a whole graph, for W columns in one pass over
/// the destinations, each column with its own factors f[k] (indexed by
/// node id). `in_rows` is WholeGraphInRows::rows(); `scratch` was Reset
/// for these columns. x is row-major and non-negative: x[i * W + k] is
/// column k's value at node i. A products pass writes y = scale∘x
/// (GatherScratch), and y_blend = blend_c∘x when any column has the β
/// blend (a column without it gets +0.0 products it never reads). Then,
/// destination by destination in ascending order, each column's in-row
/// terms fold from +0.0 in ascending source order, and finish(j, sums,
/// blend_sums) receives the W sums; FinishDestination(*f[k], j, sums[k],
/// blend_sums[k]) completes column k's (T·x)[j]. The columns never mix,
/// so SIMD across them changes no bit, and every width gives each column
/// the bits of the one-column pass.
template <size_t W, typename FinishFn>
void GatherColumns(const CsrGraph& in_rows, const TransitionFactors* const* f,
                   std::span<const double> x, GatherScratch& scratch,
                   FinishFn finish) {
  static_assert(W <= 8, "GatherScratch::sink_mask holds 8 columns");
  const size_t n = x.size() / W;
  double* y = scratch.y.data();
  double* y_blend = scratch.y_blend.data();
  const bool any_blend = !scratch.y_blend.empty();
  const bool any_sink = !scratch.sink_mask.empty();

  if (any_sink) {
    const double* scale = scratch.scale.data();
    for (size_t i = 0; i < n * W; ++i) y[i] = scale[i] * x[i];
  } else {
    const double* c[W];
    for (size_t k = 0; k < W; ++k) c[k] = f[k]->c.data();
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < W; ++k) y[i * W + k] = c[k][i] * x[i * W + k];
    }
  }
  if (any_blend) {
    const double* blend_c[W];  // null when β = 0
    for (size_t k = 0; k < W; ++k) {
      blend_c[k] = f[k]->has_blend() ? f[k]->blend_c.data() : nullptr;
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < W; ++k) {
        y_blend[i * W + k] =
            blend_c[k] != nullptr ? blend_c[k][i] * x[i * W + k] : 0.0;
      }
    }
  }

  const EdgeIndex* offsets = in_rows.offsets().data();
  const NodeId* sources = in_rows.targets().data();
  const double* weights = any_blend ? in_rows.weights().data() : nullptr;
  const uint8_t* sink_mask = scratch.sink_mask.data();
  // The destination pass, compiled apart for groups with and without a
  // sink term.
  auto destination_pass = [&](auto with_sink) {
    for (size_t j = 0; j < n; ++j) {
      const size_t begin = static_cast<size_t>(offsets[j]);
      const size_t end = static_cast<size_t>(offsets[j + 1]);
      double sums[W] = {};
      if constexpr (!with_sink) {
        for (size_t e = begin; e < end; ++e) {
          const double* yi = &y[static_cast<size_t>(sources[e]) * W];
          for (size_t k = 0; k < W; ++k) sums[k] += yi[k];
        }
      } else {
        // |y| + sign·y is 2|y| when y's sign matches the destination's
        // sink flag and +0.0 otherwise. Doubling every term doubles every
        // partial sum exactly (over a distribution a sum stays below
        // max c <= 1/DBL_MIN, a quarter of DBL_MAX), so one halving gives
        // the bits of folding the terms themselves — and the scattered
        // sink destinations cost no branch.
        constexpr double kSign[2] = {1.0, -1.0};
        double sign[W];
        for (size_t k = 0; k < W; ++k) {
          sign[k] = kSign[(sink_mask[j] >> k) & 1u];
        }
        for (size_t e = begin; e < end; ++e) {
          const double* yi = &y[static_cast<size_t>(sources[e]) * W];
          for (size_t k = 0; k < W; ++k) {
            sums[k] += std::abs(yi[k]) + sign[k] * yi[k];
          }
        }
        for (size_t k = 0; k < W; ++k) sums[k] *= 0.5;
      }
      double blend_sums[W] = {};
      if (any_blend) {
        for (size_t e = begin; e < end; ++e) {
          const double* yi = &y_blend[static_cast<size_t>(sources[e]) * W];
          for (size_t k = 0; k < W; ++k) blend_sums[k] += weights[e] * yi[k];
        }
      }
      finish(j, sums, blend_sums);
    }
  };
  if (any_sink) {
    destination_pass(std::true_type{});
  } else {
    destination_pass(std::false_type{});
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

/// \brief The arrays one pull reads, as raw pointers taken once per
/// sweep call rather than through the factors on every row.
///
/// Over products (a power sweep) the source-side arrays hold y = c∘x,
/// sink_c∘x and blend_c∘x (SourceProducts) and `live` is null; over a
/// live iterate (Gauss-Seidel) they hold c, sink_c and blend_c, and
/// `live` is the iterate, which the sweep may write between pulls.
struct PullArrays {
  const double* u = nullptr;       ///< by destination
  const uint8_t* sink = nullptr;   ///< by destination; sink term only
  const double* scale = nullptr;   ///< c or y, by source
  const double* sink_scale = nullptr;  ///< sink_c or y_sink; sink term only
  const double* blend = nullptr;   ///< blend_c or y_blend; β > 0 only
  const double* live = nullptr;    ///< the live iterate, or null

  /// Over the products of one power sweep.
  static PullArrays Products(const TransitionFactors& f,
                             const SourceProducts& products) {
    return {f.u.data(),           f.sink.data(),
            products.y.data(),    products.y_sink.data(),
            products.y_blend.data(), nullptr};
  }
  /// Over the live iterate `live`.
  static PullArrays Live(const TransitionFactors& f, const double* live) {
    return {f.u.data(),      f.sink.data(),    f.c.data(),
            f.sink_c.data(), f.blend_c.data(), live};
  }
};

/// \brief Gather form of T·x at the R consecutive rows of an in-CSR
/// whose in-arcs `offsets[0 .. R]` bound: row r's in-arcs are positions
/// [offsets[r], offsets[r + 1]), `sources` maps a position to its index
/// into the source-side arrays and weight(idx) is its arc weight. Row r's
/// value goes to value[r]; dst[r] is its destination. kSink and kBlend
/// are the factors' has_sink() and has_blend(), and kLive says whether
/// `in` reads a live iterate (each term is then c·x formed per arc, the
/// same double a product holds).
///
/// Every row folds its own terms in ascending position order from +0.0,
/// so each value is the one-row fold's bits. The R folds interleave
/// while every row still has terms, then each row finishes alone: one
/// loop exit per group instead of one per row, whose trip count the
/// branch predictor cannot know, and R independent add chains in flight.
/// A live iterate may be written between rows, so kLive pulls one row.
template <size_t R, bool kSink, bool kBlend, bool kLive, typename Source,
          typename WeightFn>
inline void PullRows(const PullArrays& in, const size_t (&dst)[R],
                     const EdgeIndex* offsets, const Source* sources,
                     WeightFn weight, double (&value)[R]) {
  static_assert(!kLive || R == 1, "a live pull reads rows written before it");
  const double* scale[R];
  const Source* row[R];
  size_t count[R];
  size_t common = static_cast<size_t>(offsets[1] - offsets[0]);
  for (size_t r = 0; r < R; ++r) {
    scale[r] = kSink && in.sink[dst[r]] ? in.sink_scale : in.scale;
    row[r] = sources + offsets[r];
    count[r] = static_cast<size_t>(offsets[r + 1] - offsets[r]);
    common = count[r] < common ? count[r] : common;
  }
  const auto term = [&](const double* a, size_t i) {
    if constexpr (kLive) {
      return a[i] * in.live[i];
    } else {
      return a[i];
    }
  };
  // The loops over the group's rows are unrolled, so each row's sum
  // stays in a register and each row's tail gets its own loop.
  double sum[R] = {};
  for (size_t j = 0; j < common; ++j) {
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      sum[r] += term(scale[r], static_cast<size_t>(row[r][j]));
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = common; j < count[r]; ++j) {
      sum[r] += term(scale[r], static_cast<size_t>(row[r][j]));
    }
    value[r] = in.u[dst[r]] * sum[r];
  }
  if constexpr (kBlend) {
    for (size_t r = 0; r < R; ++r) {
      const size_t begin = static_cast<size_t>(offsets[r]);
      double blend_sum = 0.0;
      for (size_t j = 0; j < count[r]; ++j) {
        blend_sum += weight(begin + j) *
                     term(in.blend, static_cast<size_t>(row[r][j]));
      }
      value[r] += blend_sum;
    }
  }
}

}  // namespace d2pr

#endif  // D2PR_CORE_TRANSITION_KERNEL_H_
