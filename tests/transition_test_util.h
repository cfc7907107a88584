// Shared helpers of the transition suites: the per-arc reference build
// the factored operator replaced, and bitwise comparisons of factors.
//
// ReferenceArcProbs is the library's former TransitionMatrix::Build,
// kept here as an independent oracle: one probability per arc, each row
// a softmax of -p·ln(metric) with its own max subtracted, the metric-0
// limits applied per row, and the β blend per arc. The factored build
// shares none of this code.

#ifndef D2PR_TESTS_TRANSITION_TEST_UTIL_H_
#define D2PR_TESTS_TRANSITION_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/transition.h"
#include "graph/csr_graph.h"

namespace d2pr {

/// Per-arc probabilities aligned with graph.targets(), under `config`
/// (which must be valid for `graph`).
inline std::vector<double> ReferenceArcProbs(const CsrGraph& graph,
                                             const TransitionConfig& config) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  constexpr double kPosInf = std::numeric_limits<double>::infinity();
  const double beta = graph.weighted() ? config.beta : 0.0;
  const double p = config.p;
  const std::vector<double> metric =
      MetricValues(graph, ResolveMetric(graph, config.metric));
  std::vector<double> probs(static_cast<size_t>(graph.num_arcs()), 0.0);
  std::vector<double> row;
  for (NodeId i = 0; i < graph.num_nodes(); ++i) {
    const auto targets = graph.OutNeighbors(i);
    if (targets.empty()) continue;
    // Exponent -p·ln m; metric 0 dominates at p > 0 (+inf), vanishes at
    // p < 0 (-inf) and is neutral at p = 0.
    row.clear();
    double max_exponent = kNegInf;
    for (NodeId j : targets) {
      const double m = metric[static_cast<size_t>(j)];
      const double exponent =
          m > 0.0 ? -p * std::log(m) : (p > 0.0 ? kPosInf
                                                : p < 0.0 ? kNegInf : 0.0);
      row.push_back(exponent);
      max_exponent = std::max(max_exponent, exponent);
    }
    double row_sum = 0.0;
    for (double& exponent : row) {
      if (max_exponent == kPosInf) {
        exponent = exponent == kPosInf ? 1.0 : 0.0;
      } else {
        exponent =
            exponent == kNegInf ? 0.0 : std::exp(exponent - max_exponent);
      }
      row_sum += exponent;
    }
    if (row_sum == 0.0) {  // every target vanished: uniform row
      std::fill(row.begin(), row.end(), 1.0);
      row_sum = static_cast<double>(row.size());
    }
    const double strength = beta > 0.0 ? graph.OutStrength(i) : 0.0;
    const size_t begin = static_cast<size_t>(graph.ArcBegin(i));
    for (size_t k = 0; k < targets.size(); ++k) {
      double prob = row[k] / row_sum;
      if (beta > 0.0) {
        prob = beta * (graph.weights()[begin + k] / strength) +
               (1.0 - beta) * prob;
      }
      probs[begin + k] = prob;
    }
  }
  return probs;
}

/// Power iteration over per-arc probabilities: SolvePagerank's
/// recurrence (uniform teleport, dangling mass re-injected through it),
/// written against the per-arc table instead of the factors.
inline std::vector<double> ReferenceSolve(const CsrGraph& graph,
                                          const std::vector<double>& probs,
                                          double alpha, double tolerance,
                                          int max_iterations) {
  const size_t n = static_cast<size_t>(graph.num_nodes());
  const double teleport = 1.0 / static_cast<double>(n);
  std::vector<double> x(n, teleport);
  std::vector<double> next(n);
  for (int iter = 0; iter < max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (NodeId i = 0; i < graph.num_nodes(); ++i) {
      const auto targets = graph.OutNeighbors(i);
      if (targets.empty()) dangling += x[static_cast<size_t>(i)];
      const size_t begin = static_cast<size_t>(graph.ArcBegin(i));
      for (size_t k = 0; k < targets.size(); ++k) {
        next[static_cast<size_t>(targets[k])] +=
            x[static_cast<size_t>(i)] * probs[begin + k];
      }
    }
    double residual = 0.0;
    for (size_t v = 0; v < n; ++v) {
      next[v] = alpha * (next[v] + dangling * teleport) +
                (1.0 - alpha) * teleport;
      residual += std::abs(next[v] - x[v]);
    }
    x.swap(next);
    if (residual < tolerance) break;
  }
  return x;
}

/// Bitwise equality of one factor array.
template <typename T>
void ExpectSameBits(const std::vector<T>& got, const std::vector<T>& want,
                    const char* name) {
  ASSERT_EQ(got.size(), want.size()) << name;
  if (want.empty()) return;  // memcmp must not see empty vectors' nullptr
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(T)), 0)
      << name << " differs";
}

/// Bitwise equality of two factor sets, section by section.
inline void ExpectSameFactors(const TransitionFactors& got,
                              const TransitionFactors& want) {
  ExpectSameBits(got.u, want.u, "u");
  ExpectSameBits(got.c, want.c, "c");
  ExpectSameBits(got.sink, want.sink, "sink");
  ExpectSameBits(got.sink_c, want.sink_c, "sink_c");
  ExpectSameBits(got.blend_c, want.blend_c, "blend_c");
}

/// Bitwise equality of two matrices: factors, dangling bitmap and size.
inline void ExpectSameMatrix(const TransitionMatrix& got,
                             const TransitionMatrix& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.num_arcs(), want.num_arcs());
  ExpectSameFactors(got.factors(), want.factors());
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    EXPECT_EQ(got.IsDangling(v), want.IsDangling(v)) << "node " << v;
  }
}

}  // namespace d2pr

#endif  // D2PR_TESTS_TRANSITION_TEST_UTIL_H_
