// The whole-graph power kernel against a plain out-row scatter.
//
// No library path scatters: SolvePagerank, SolvePagerankBatch and
// TransitionMatrix::Multiply gather each destination's in-row
// (core/transition_kernel.h). The reference here is the scatter they
// replaced, written with loops: sources in ascending order push c·x (or
// sink_c·x into a sink destination, and w·blend_c·x under the β blend)
// along their out-rows into sums that start at +0.0, then every
// destination is finished. Both forms fold each destination's terms in
// the same ascending source order, so every score, residual and
// iteration count must match by memcmp, on undirected, self-looped,
// directed-with-sinks and weighted graphs, under every dangling policy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/pagerank.h"
#include "core/sweeps.h"
#include "core/teleport.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"

namespace d2pr {
namespace {

/// T·x by scattering along out-rows: the terms of each destination land
/// in ascending source order, from +0.0.
std::vector<double> ScatterMultiply(const CsrGraph& graph,
                                    const TransitionMatrix& transition,
                                    const std::vector<double>& x) {
  const TransitionFactors& f = transition.factors();
  const size_t n = x.size();
  std::vector<double> sums(n, 0.0);
  std::vector<double> blend_sums(n, 0.0);
  for (NodeId i = 0; i < graph.num_nodes(); ++i) {
    const size_t src = static_cast<size_t>(i);
    const auto targets = graph.OutNeighbors(i);
    for (size_t a = 0; a < targets.size(); ++a) {
      const size_t dst = static_cast<size_t>(targets[a]);
      const bool sink = f.has_sink() && f.sink[dst];
      sums[dst] += (sink ? f.sink_c[src] : f.c[src]) * x[src];
      if (f.has_blend()) {
        blend_sums[dst] += graph.OutWeights(i)[a] * (f.blend_c[src] * x[src]);
      }
    }
  }
  std::vector<double> out(n);
  for (size_t j = 0; j < n; ++j) {
    out[j] = f.u[j] * sums[j];
    if (f.has_blend()) out[j] += blend_sums[j];
  }
  return out;
}

/// SolvePagerank's recurrence over ScatterMultiply: start from the
/// L1-normalized teleport; per iteration fold the dangling mass, apply
/// the policy and the teleport blend, renormalize under kRenormalize, and
/// stop on the L1 change or the iteration cap.
PagerankResult ScatterSolve(const CsrGraph& graph,
                            const TransitionMatrix& transition,
                            const std::vector<double>& teleport,
                            const PagerankOptions& options) {
  const size_t n = teleport.size();
  std::vector<double> x = teleport;
  double norm = 0.0;
  for (double v : x) norm += std::abs(v);
  if (norm > 0.0) {
    for (double& v : x) v *= 1.0 / norm;
  }
  PagerankResult result;
  for (int iter = 1;; ++iter) {
    double mass = 0.0;
    for (size_t v = 0; v < n; ++v) {
      if (transition.IsDangling(static_cast<NodeId>(v))) mass += x[v];
    }
    std::vector<double> next = ScatterMultiply(graph, transition, x);
    for (size_t v = 0; v < n; ++v) {
      double value = next[v];
      if (options.dangling == DanglingPolicy::kTeleport && mass > 0.0) {
        value += mass * teleport[v];
      }
      if (options.dangling == DanglingPolicy::kSelfLoop &&
          transition.IsDangling(static_cast<NodeId>(v))) {
        value += x[v];
      }
      next[v] = options.alpha * value + (1.0 - options.alpha) * teleport[v];
    }
    if (options.dangling == DanglingPolicy::kRenormalize) {
      double total = 0.0;
      for (double v : next) total += std::abs(v);
      if (total > 0.0) {
        for (double& v : next) v *= 1.0 / total;
      }
    }
    double diff = 0.0;
    for (size_t v = 0; v < n; ++v) diff += std::abs(next[v] - x[v]);
    x.swap(next);
    result.iterations = iter;
    result.residual = diff;
    result.converged = diff < options.tolerance;
    if (result.converged || iter >= options.max_iterations) break;
  }
  result.scores = std::move(x);
  return result;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameResult(const PagerankResult& got, const PagerankResult& want) {
  EXPECT_TRUE(SameBits(got.scores, want.scores));
  EXPECT_TRUE(SameBits(got.residual, want.residual));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

/// A random graph over `nodes` nodes: ~3 arcs per node to uniform
/// targets, self-loops kept when `loops`. When directed, the last
/// `dangling` nodes have no out-arcs; under the out-degree metric they
/// are metric-0 sinks, so every p != 0 transition has the sink term.
CsrGraph RandomGraph(uint64_t seed, GraphKind kind, bool weighted,
                     bool loops, NodeId nodes = 200, NodeId dangling = 0) {
  Rng rng(seed);
  GraphBuilder builder(nodes, kind, weighted);
  for (NodeId u = 0; u < nodes - dangling; ++u) {
    for (int arc = 0; arc < 3; ++arc) {
      const NodeId v = static_cast<NodeId>(rng.Below(nodes));
      if (v == u && !loops) continue;
      const double weight = weighted ? rng.Uniform(0.5, 2.5) : 1.0;
      EXPECT_TRUE(builder.AddEdge(u, v, weight).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Every solve path against the scatter: SolvePagerank and Multiply per
/// p-grid point, and SolvePagerankBatch at K = 1, 6 and 17, under each
/// dangling policy.
void ExpectKernelMatchesScatter(const CsrGraph& graph, double beta) {
  const std::vector<double> grid = PaperPGrid();
  std::vector<TransitionMatrix> transitions;
  for (double p : grid) {
    auto built = TransitionMatrix::Build(graph, {.p = p, .beta = beta});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    transitions.push_back(std::move(built).value());
  }
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());

  // A non-negative x with zeros, whose +0.0 terms the gather adds.
  Rng rng(99);
  std::vector<double> x(static_cast<size_t>(graph.num_nodes()));
  for (double& v : x) v = rng.Uniform() < 0.3 ? 0.0 : rng.Uniform();
  std::vector<double> product(x.size());
  for (const TransitionMatrix& transition : transitions) {
    transition.Multiply(graph, x, product);
    EXPECT_TRUE(SameBits(product, ScatterMultiply(graph, transition, x)));
  }

  for (DanglingPolicy policy :
       {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
        DanglingPolicy::kRenormalize}) {
    SCOPED_TRACE(static_cast<int>(policy));
    PagerankOptions options;
    options.dangling = policy;
    std::vector<PagerankResult> want;
    for (const TransitionMatrix& transition : transitions) {
      want.push_back(ScatterSolve(graph, transition, teleport, options));
      auto single = SolvePagerank(graph, transition, teleport, options);
      ASSERT_TRUE(single.ok());
      ExpectSameResult(*single, want.back());
    }
    for (size_t width : {1u, 6u, 17u}) {
      SCOPED_TRACE(width);
      std::vector<PagerankColumn> columns;
      std::vector<size_t> points;
      for (size_t k = 0; k < width; ++k) {
        points.push_back(k * grid.size() / width);
        columns.push_back({&transitions[points.back()], options});
      }
      auto batch = SolvePagerankBatch(graph, columns, teleport);
      ASSERT_TRUE(batch.ok());
      for (size_t k = 0; k < width; ++k) {
        ExpectSameResult((*batch)[k], want[points[k]]);
      }
    }
  }
}

TEST(PowerReferenceTest, UndirectedBarabasiAlbert) {
  Rng rng(7);
  auto graph = BarabasiAlbert(300, 4, &rng);
  ASSERT_TRUE(graph.ok());
  ExpectKernelMatchesScatter(*graph, 0.0);
}

TEST(PowerReferenceTest, UndirectedWithSelfLoops) {
  const CsrGraph graph =
      RandomGraph(11, GraphKind::kUndirected, false, /*loops=*/true);
  ExpectKernelMatchesScatter(graph, 0.0);
}

TEST(PowerReferenceTest, DirectedWithSinks) {
  const CsrGraph graph = RandomGraph(12, GraphKind::kDirected, false,
                                     /*loops=*/false, 200, /*dangling=*/40);
  auto transition = TransitionMatrix::Build(graph, {.p = 1.0});
  ASSERT_TRUE(transition.ok());
  ASSERT_TRUE(transition->factors().has_sink());
  ExpectKernelMatchesScatter(graph, 0.0);
}

TEST(PowerReferenceTest, UndirectedDuplicatesUnderTheBlend) {
  // Many repeated edges, merged keeping the first weight: a gather reads
  // an arc's weight from the destination's row, the scatter from the
  // source's, and the two agree only because the builder merges both
  // arcs of an edge in insertion order.
  Rng rng(14);
  GraphBuilder builder(30, GraphKind::kUndirected, /*weighted=*/true);
  for (int edge = 0; edge < 400; ++edge) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<NodeId>(rng.Below(30)),
                             static_cast<NodeId>(rng.Below(30)),
                             rng.Uniform(0.5, 2.5))
                    .ok());
  }
  auto graph = builder.Build(DuplicatePolicy::kKeepFirst);
  ASSERT_TRUE(graph.ok());
  ExpectKernelMatchesScatter(*graph, 0.5);
}

TEST(PowerReferenceTest, WeightedUnderTheBlend) {
  for (GraphKind kind : {GraphKind::kUndirected, GraphKind::kDirected}) {
    const CsrGraph graph = RandomGraph(
        13, kind, /*weighted=*/true, /*loops=*/true, 200,
        kind == GraphKind::kDirected ? 30 : 0);
    for (double beta : {0.0, 0.5}) {
      SCOPED_TRACE(testing::Message()
                   << "directed=" << graph.directed() << " beta=" << beta);
      ExpectKernelMatchesScatter(graph, beta);
    }
  }
}

}  // namespace
}  // namespace d2pr
