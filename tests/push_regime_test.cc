// The two frontier regimes of the shared push step (PushRun,
// core/push_ppr.h): a local query stays in the FIFO (passes == 0), a
// global one switches to node-order passes (passes > 0), and in both the
// plain push keeps its guarantee (every residual <= epsilon, L1 error <=
// epsilon·|V|) and the top-k solver keeps its certificates — also on
// directed graphs whose dangling nodes re-inject mass through the seed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pagerank.h"
#include "core/push_ppr.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "linalg/vec_ops.h"
#include "topk/degree_bound.h"
#include "topk/topk_solver.h"

namespace d2pr {
namespace {

TransitionMatrix Transition(const CsrGraph& graph, double p) {
  auto result = TransitionMatrix::Build(graph, {.p = p});
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

std::vector<double> PointSeed(NodeId n, NodeId at) {
  std::vector<double> seed(static_cast<size_t>(n), 0.0);
  seed[static_cast<size_t>(at)] = 1.0;
  return seed;
}

/// A directed graph in which about 28% of the nodes dangle: the arcs of a
/// Barabási–Albert graph, each node keeping all of its out-arcs or none.
CsrGraph DirectedWithDangling(NodeId n, uint64_t seed) {
  Rng rng(seed);
  auto undirected = BarabasiAlbert(n, 3, &rng);
  EXPECT_TRUE(undirected.ok());
  GraphBuilder builder(n, GraphKind::kDirected);
  for (NodeId u = 0; u < n; ++u) {
    if (rng.Uniform() < 0.28) continue;
    for (NodeId v : undirected->OutNeighbors(u)) {
      EXPECT_TRUE(builder.AddEdge(u, v).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Power iteration to near machine precision under the kTeleport policy,
/// the policy push re-injection reproduces.
std::vector<double> Exact(const CsrGraph& graph,
                          const TransitionMatrix& transition,
                          std::span<const double> seed, double alpha) {
  PagerankOptions options;
  options.alpha = alpha;
  options.tolerance = 1e-14;
  options.max_iterations = 3000;
  options.dangling = DanglingPolicy::kTeleport;
  auto exact = SolvePagerank(graph, transition, seed, options);
  EXPECT_TRUE(exact.ok());
  EXPECT_TRUE(exact->converged);
  return exact->scores;
}

/// The plain push's guarantee on a completed run.
void ExpectWithinGuarantee(const PushResult& push,
                           const std::vector<double>& exact, double epsilon) {
  EXPECT_TRUE(push.completed);
  for (double r : push.residual) EXPECT_LE(r, epsilon);
  EXPECT_LE(DiffL1(push.scores, exact),
            epsilon * static_cast<double>(exact.size()));
}

/// Every top-k interval brackets the exact score (up to the reference
/// solver's own tolerance).
void ExpectIntervalsBracket(const TopKResult& ranked,
                            const std::vector<double>& exact) {
  ASSERT_FALSE(ranked.entries.empty());
  for (const TopKEntry& entry : ranked.entries) {
    const double truth = exact[static_cast<size_t>(entry.node)];
    EXPECT_LE(entry.lower_bound, truth + 1e-11) << "node " << entry.node;
    EXPECT_GE(entry.upper_bound, truth - 1e-11) << "node " << entry.node;
  }
}

TEST(PushRegimeTest, CertifiedLocalTopKNeverLeavesTheFifo) {
  // The BM_TopKCertifiedLocalPush shape (bench/perf_topk.cc): a non-hub
  // seed at strong teleport on 100k nodes certifies its top 10 after a
  // few thousand pushes, long before the frontier holds |V|/64 nodes.
  Rng rng(42);
  auto graph = BarabasiAlbert(100000, 4, &rng);
  ASSERT_TRUE(graph.ok());
  const TransitionMatrix t = Transition(*graph, 0.5);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  TopKOptions options;
  options.k = 10;
  options.alpha = 0.3;
  options.epsilon = 1e-6;
  auto ranked = SolveTopK(*graph, t, index,
                          PointSeed(graph->num_nodes(), 50000), options);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->passes, 0);
  EXPECT_TRUE(ranked->certified);
  EXPECT_EQ(ranked->entries.size(), 10u);
  for (const TopKEntry& entry : ranked->entries) EXPECT_TRUE(entry.certified);
}

TEST(PushRegimeTest, UniformTeleportSweeps) {
  // A uniform seed puts every node on the frontier at once: the run is
  // global from its first push.
  Rng rng(7);
  auto graph = BarabasiAlbert(3000, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const TransitionMatrix t = Transition(*graph, 0.5);
  const std::vector<double> uniform(3000, 1.0 / 3000);
  const std::vector<double> exact = Exact(*graph, t, uniform, 0.85);

  PushOptions options;
  options.epsilon = 1e-8;
  auto push = ForwardPushPpr(*graph, t, uniform, options);
  ASSERT_TRUE(push.ok());
  EXPECT_GT(push->passes, 0);
  ExpectWithinGuarantee(*push, exact, options.epsilon);

  const DegreeBoundIndex index = DegreeBoundIndex::Build(*graph, t);
  TopKOptions topk;
  topk.k = 10;
  topk.epsilon = 1e-8;
  auto ranked = SolveTopK(*graph, t, index, uniform, topk);
  ASSERT_TRUE(ranked.ok());
  EXPECT_GT(ranked->passes, 0);
  ExpectIntervalsBracket(*ranked, exact);
}

struct Regime {
  const char* name;
  double alpha;
  double epsilon;
  bool global;
};

// p = 0: a dangling node has metric 0, and any p > 0 would send every
// row's mass to its dangling targets (the sink term, core/transition.h).
// At p = 0 the walk spreads, and dangling nodes are pushed in both
// regimes, so re-injection through the seed runs in both.
class DanglingRegimeTest : public ::testing::TestWithParam<Regime> {
 protected:
  static constexpr NodeId kNodes = 20000;
  static constexpr NodeId kSeeds[] = {1500, 9000, 19999};
};

TEST_P(DanglingRegimeTest, PushKeepsItsGuaranteeOnDanglingGraphs) {
  const Regime regime = GetParam();
  const CsrGraph graph = DirectedWithDangling(kNodes, 11);
  const TransitionMatrix t = Transition(graph, 0.0);
  ASSERT_FALSE(t.DanglingNodes().empty());
  for (NodeId at : kSeeds) {
    const std::vector<double> seed = PointSeed(kNodes, at);
    const std::vector<double> exact = Exact(graph, t, seed, regime.alpha);
    PushOptions options;
    options.alpha = regime.alpha;
    options.epsilon = regime.epsilon;
    auto push = ForwardPushPpr(graph, t, seed, options);
    ASSERT_TRUE(push.ok());
    EXPECT_EQ(push->passes > 0, regime.global) << "seed " << at;
    ExpectWithinGuarantee(*push, exact, regime.epsilon);
    bool reinjected = false;
    for (NodeId v : t.DanglingNodes()) {
      reinjected |= push->scores[static_cast<size_t>(v)] > 0.0;
    }
    EXPECT_TRUE(reinjected) << "seed " << at;
  }
}

TEST_P(DanglingRegimeTest, TopKIntervalsBracketExactScoresOnDanglingGraphs) {
  const Regime regime = GetParam();
  const CsrGraph graph = DirectedWithDangling(kNodes, 11);
  const TransitionMatrix t = Transition(graph, 0.0);
  const DegreeBoundIndex index = DegreeBoundIndex::Build(graph, t);
  ASSERT_TRUE(index.has_dangling());
  for (NodeId at : kSeeds) {
    const std::vector<double> seed = PointSeed(kNodes, at);
    const std::vector<double> exact = Exact(graph, t, seed, regime.alpha);
    TopKOptions options;
    options.k = 50;
    options.alpha = regime.alpha;
    options.epsilon = regime.epsilon;
    auto ranked = SolveTopK(graph, t, index, seed, options);
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(ranked->passes > 0, regime.global) << "seed " << at;
    ExpectIntervalsBracket(*ranked, exact);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, DanglingRegimeTest,
    ::testing::Values(Regime{"local", 0.5, 1e-4, false},
                      Regime{"global", 0.5, 1e-7, true}),
    [](const ::testing::TestParamInfo<Regime>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace d2pr
