// SolvePagerankBatch: every column is bit-identical to its own cold
// SolvePagerank — scores and residual by memcmp, iterations and converged
// by equality — across the paper's p grid, every dangling policy, the β
// blend, the sink term, every group split and columns that leave the
// batch at different iterations; and each validation error is the one
// SolvePagerank returns.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/pagerank.h"
#include "core/sweeps.h"
#include "core/teleport.h"
#include "graph/graph_builder.h"

namespace d2pr {
namespace {

/// A directed graph whose last `dangling` nodes have no out-arcs. Under
/// the out-degree (or out-strength) metric those nodes have metric 0, so
/// every p != 0 transition carries the sink term.
CsrGraph DirectedWithSinks(uint64_t seed, bool weighted, NodeId nodes = 240,
                           NodeId dangling = 30) {
  Rng rng(seed);
  GraphBuilder builder(nodes, GraphKind::kDirected, weighted);
  for (NodeId u = 0; u < nodes - dangling; ++u) {
    for (int arc = 0; arc < 4; ++arc) {
      const NodeId v = static_cast<NodeId>(rng.Below(nodes));
      if (v == u) continue;
      const double weight = weighted ? rng.Uniform(0.5, 2.5) : 1.0;
      EXPECT_TRUE(builder.AddEdge(u, v, weight).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::vector<TransitionMatrix> Transitions(const CsrGraph& graph,
                                          const std::vector<double>& grid,
                                          double beta = 0.0) {
  std::vector<TransitionMatrix> transitions;
  for (double p : grid) {
    auto built = TransitionMatrix::Build(graph, {.p = p, .beta = beta});
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    transitions.push_back(std::move(built).value());
  }
  return transitions;
}

std::vector<PagerankColumn> Columns(
    const std::vector<TransitionMatrix>& transitions,
    const PagerankOptions& options) {
  std::vector<PagerankColumn> columns;
  for (const TransitionMatrix& transition : transitions) {
    columns.push_back({&transition, options});
  }
  return columns;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Solves `columns` as one batch and each column cold, and asserts the
/// two agree bit for bit. Returns the batch's results.
std::vector<PagerankResult> ExpectColumnsMatchColdSolves(
    const CsrGraph& graph, const std::vector<PagerankColumn>& columns,
    const std::vector<double>& teleport) {
  auto batch = SolvePagerankBatch(graph, columns, teleport);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (!batch.ok()) return {};
  EXPECT_EQ(batch->size(), columns.size());
  for (size_t k = 0; k < columns.size(); ++k) {
    auto cold = SolvePagerank(graph, *columns[k].transition, teleport,
                              columns[k].options);
    EXPECT_TRUE(cold.ok());
    const PagerankResult& got = (*batch)[k];
    EXPECT_EQ(got.scores.size(), cold->scores.size()) << "column " << k;
    if (got.scores.size() != cold->scores.size()) continue;
    EXPECT_EQ(std::memcmp(got.scores.data(), cold->scores.data(),
                          cold->scores.size() * sizeof(double)),
              0)
        << "column " << k;
    EXPECT_TRUE(SameBits(got.residual, cold->residual)) << "column " << k;
    EXPECT_EQ(got.iterations, cold->iterations) << "column " << k;
    EXPECT_EQ(got.converged, cold->converged) << "column " << k;
  }
  return std::move(batch).value();
}

TEST(PagerankBatchTest, PaperGridUnderEveryDanglingPolicy) {
  const CsrGraph graph = DirectedWithSinks(1, /*weighted=*/false);
  const std::vector<double> grid = PaperPGrid();
  const std::vector<TransitionMatrix> transitions = Transitions(graph, grid);
  // The graph exercises the sink term at every p != 0.
  for (size_t k = 0; k < grid.size(); ++k) {
    EXPECT_EQ(transitions[k].factors().has_sink(), grid[k] != 0.0);
  }
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  for (DanglingPolicy policy :
       {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
        DanglingPolicy::kRenormalize}) {
    SCOPED_TRACE(static_cast<int>(policy));
    PagerankOptions options;
    options.dangling = policy;
    ExpectColumnsMatchColdSolves(graph, Columns(transitions, options),
                                 teleport);
  }
}

TEST(PagerankBatchTest, BlendAndPlainColumnsShareAGroup) {
  const CsrGraph graph = DirectedWithSinks(2, /*weighted=*/true);
  const std::vector<double> grid = {-2.0, -1.0, 0.0, 1.0, 2.0};
  const std::vector<TransitionMatrix> plain = Transitions(graph, grid, 0.0);
  const std::vector<TransitionMatrix> blended = Transitions(graph, grid, 0.5);
  ASSERT_FALSE(plain[0].factors().has_blend());
  ASSERT_TRUE(blended[0].factors().has_blend());
  // β = 0 and β = 0.5 interleaved, so each group mixes both kinds.
  std::vector<PagerankColumn> columns;
  for (size_t k = 0; k < grid.size(); ++k) {
    columns.push_back({&plain[k], {}});
    columns.push_back({&blended[k], {}});
  }
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  ExpectColumnsMatchColdSolves(graph, columns, teleport);
  for (PagerankColumn& column : columns) {
    column.options.dangling = DanglingPolicy::kRenormalize;
  }
  ExpectColumnsMatchColdSolves(graph, columns, teleport);
}

TEST(PagerankBatchTest, EveryGroupSplitMatches) {
  const CsrGraph graph = DirectedWithSinks(3, /*weighted=*/false);
  const std::vector<double> grid = PaperPGrid();
  const std::vector<TransitionMatrix> transitions = Transitions(graph, grid);
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  // 1, 5 and 6 are one group; 7 splits 4/3 and 17 splits 6/6/5.
  for (size_t width : {1u, 5u, 6u, 7u, 17u}) {
    SCOPED_TRACE(width);
    std::vector<PagerankColumn> columns;
    for (size_t k = 0; k < width; ++k) {
      columns.push_back({&transitions[(k * 5) % grid.size()], {}});
    }
    ExpectColumnsMatchColdSolves(graph, columns, teleport);
  }
}

TEST(PagerankBatchTest, ColumnsLeaveAtTheirOwnIteration) {
  const CsrGraph graph = DirectedWithSinks(4, /*weighted=*/false);
  const std::vector<TransitionMatrix> transitions =
      Transitions(graph, {-1.0, 0.0, 0.5, 1.0, 2.0, 3.0});
  // Different alphas, tolerances, policies and one capped column.
  std::vector<PagerankColumn> columns = Columns(transitions, {});
  columns[0].options.alpha = 0.5;
  columns[1].options.tolerance = 1e-6;
  columns[2].options.max_iterations = 5;
  columns[3].options.alpha = 0.95;
  columns[4].options.dangling = DanglingPolicy::kSelfLoop;
  columns[5].options.dangling = DanglingPolicy::kRenormalize;
  // A seeded teleport leaves most sources at zero in early iterations.
  const std::vector<NodeId> seeds = {0, 7, 19};
  auto seeded = SeededTeleport(graph.num_nodes(), seeds);
  ASSERT_TRUE(seeded.ok());
  const std::vector<std::vector<double>> teleports = {
      UniformTeleport(graph.num_nodes()), *seeded};
  for (const std::vector<double>& teleport : teleports) {
    const std::vector<PagerankResult> results =
        ExpectColumnsMatchColdSolves(graph, columns, teleport);
    ASSERT_EQ(results.size(), columns.size());
    EXPECT_FALSE(results[2].converged);
    EXPECT_EQ(results[2].iterations, 5);
    EXPECT_LT(results[0].iterations, results[3].iterations);
    EXPECT_LT(results[1].iterations, results[3].iterations);
  }
}

TEST(PagerankBatchTest, EmptyBatchAndEmptyGraph) {
  const CsrGraph graph = DirectedWithSinks(5, /*weighted=*/false);
  auto none = SolvePagerankBatch(graph, {}, UniformTeleport(240));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  auto empty = GraphBuilder(0, GraphKind::kDirected).Build();
  ASSERT_TRUE(empty.ok());
  auto transition = TransitionMatrix::Build(*empty, {});
  ASSERT_TRUE(transition.ok());
  const std::vector<PagerankColumn> columns(2, {&*transition, {}});
  auto batch = SolvePagerankBatch(*empty, columns, {});
  auto cold = SolvePagerank(*empty, *transition, {}, {});
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(cold.ok());
  for (const PagerankResult& result : *batch) {
    EXPECT_EQ(result.converged, cold->converged);
    EXPECT_EQ(result.iterations, cold->iterations);
    EXPECT_TRUE(result.scores.empty());
  }
}

TEST(PagerankBatchTest, ValidationErrorsAreSolvePageranks) {
  const CsrGraph graph = DirectedWithSinks(6, /*weighted=*/false);
  const std::vector<TransitionMatrix> transitions =
      Transitions(graph, {0.0, 1.0});
  const CsrGraph other = DirectedWithSinks(7, /*weighted=*/false, 100, 10);
  auto foreign = TransitionMatrix::Build(other, {});
  ASSERT_TRUE(foreign.ok());
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // The batch's error is the cold solve's error for the failing column.
  auto expect_same = [&](const std::vector<PagerankColumn>& columns,
                         const std::vector<double>& tele, size_t failing) {
    auto batch = SolvePagerankBatch(graph, columns, tele);
    auto cold = SolvePagerank(graph, *columns[failing].transition, tele,
                              columns[failing].options);
    ASSERT_FALSE(batch.ok());
    ASSERT_FALSE(cold.ok());
    EXPECT_EQ(batch.status(), cold.status()) << batch.status().ToString();
  };
  // Option errors in the second column, behind a valid first column.
  for (PagerankOptions bad :
       {PagerankOptions{.alpha = 1.0}, PagerankOptions{.alpha = nan},
        PagerankOptions{.tolerance = 0.0},
        PagerankOptions{.max_iterations = 0}}) {
    expect_same({{&transitions[0], {}}, {&transitions[1], bad}}, teleport, 1);
  }
  // A transition over another graph.
  expect_same({{&transitions[0], {}}, {&*foreign, {}}}, teleport, 1);
  // Teleport errors fail the first column.
  std::vector<double> negative = teleport;
  negative[3] = -negative[3];
  std::vector<double> not_finite = teleport;
  not_finite[5] = nan;
  std::vector<double> off_sum = teleport;
  off_sum[0] += 0.5;
  for (const std::vector<double>& bad :
       {std::vector<double>(10, 0.1), negative, not_finite, off_sum}) {
    expect_same({{&transitions[0], {}}, {&transitions[1], {}}}, bad, 0);
  }
  // A bad first column outranks a bad teleport, as in a cold solve.
  expect_same({{&transitions[0], {.tolerance = -1.0}}, {&transitions[1], {}}},
              negative, 0);
}

}  // namespace
}  // namespace d2pr
