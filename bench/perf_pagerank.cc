// Microbenchmarks for the power-iteration solver: scaling with graph size,
// de-coupling weight, and residual probability, and the batched kernel
// against one solve per column.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/d2pr.h"
#include "core/sweeps.h"
#include "core/teleport.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"

namespace d2pr {
namespace {

CsrGraph MakeGraph(int64_t nodes, int32_t edges_per_node = 4) {
  Rng rng(42);
  auto graph =
      BarabasiAlbert(static_cast<NodeId>(nodes), edges_per_node, &rng);
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

void BM_PagerankBySize(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  D2prOptions options;
  options.tolerance = 1e-9;
  for (auto _ : state) {
    auto result = ComputeD2pr(graph, options);
    benchmark::DoNotOptimize(result->scores.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_arcs());
}
BENCHMARK(BM_PagerankBySize)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PagerankByP(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(10000);
  D2prOptions options;
  options.p = static_cast<double>(state.range(0)) / 2.0;
  options.tolerance = 1e-9;
  for (auto _ : state) {
    auto result = ComputeD2pr(graph, options);
    benchmark::DoNotOptimize(result->scores.data());
  }
}
BENCHMARK(BM_PagerankByP)->Arg(-4)->Arg(0)->Arg(1)->Arg(4);

void BM_PagerankByAlpha(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(10000);
  D2prOptions options;
  options.alpha = static_cast<double>(state.range(0)) / 100.0;
  options.tolerance = 1e-9;
  for (auto _ : state) {
    auto result = ComputeD2pr(graph, options);
    benchmark::DoNotOptimize(result->scores.data());
  }
}
BENCHMARK(BM_PagerankByAlpha)->Arg(50)->Arg(85)->Arg(95);

void BM_SingleIterationMultiply(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  auto transition = TransitionMatrix::Build(graph, {.p = 0.5});
  D2PR_CHECK(transition.ok());
  std::vector<double> x(static_cast<size_t>(graph.num_nodes()),
                        1.0 / graph.num_nodes());
  std::vector<double> out(x.size());
  for (auto _ : state) {
    transition->Multiply(graph, x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_arcs());
}
BENCHMARK(BM_SingleIterationMultiply)->Arg(10000)->Arg(100000);

/// A sparse directed graph shaped like a crawl: 28% of the nodes
/// (chosen at random) have no out-arcs, the rest 2 or 3 (~1.6 arcs per
/// node), to uniform non-loop targets. Its dangling nodes have out-degree
/// 0, so every p != 0 transition carries the sink term.
CsrGraph MakeDirectedWithSinks(int64_t nodes) {
  Rng rng(42);
  const NodeId n = static_cast<NodeId>(nodes);
  GraphBuilder builder(n, GraphKind::kDirected);
  for (NodeId u = 0; u < n; ++u) {
    if (rng.Uniform() < 0.28) continue;
    const int arcs = rng.Below(4) == 0 ? 3 : 2;
    for (int arc = 0; arc < arcs; ++arc) {
      const NodeId v = static_cast<NodeId>(rng.Below(static_cast<uint64_t>(n)));
      if (v != u) D2PR_CHECK(builder.AddEdge(u, v).ok());
    }
  }
  auto graph = builder.Build(DuplicatePolicy::kKeepFirst);
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

// K points of the paper's p grid (spread over it; all 17 at K = 17),
// solved cold from the uniform teleport: as one SolvePagerankBatch call
// (batched = 1) or as K SolvePagerank calls (batched = 0). The graph is
// BA(nodes, 8), the sweep workload's shape (sinks = 0), or
// MakeDirectedWithSinks (sinks = 1), whose sink term is live and whose
// in-rows each solve call transposes. Transitions are built outside the
// timed loop. 10k nodes keep the iterates near L2; 100k nodes are
// DRAM-resident.
void BM_PowerBatch(benchmark::State& state) {
  const CsrGraph graph = state.range(3) != 0
                             ? MakeDirectedWithSinks(state.range(0))
                             : MakeGraph(state.range(0), 8);
  const size_t width = static_cast<size_t>(state.range(1));
  const bool batched = state.range(2) != 0;
  const std::vector<double> grid = PaperPGrid();
  std::vector<TransitionMatrix> transitions;
  for (size_t k = 0; k < width; ++k) {
    auto built =
        TransitionMatrix::Build(graph, {.p = grid[k * grid.size() / width]});
    D2PR_CHECK(built.ok());
    transitions.push_back(std::move(built).value());
  }
  std::vector<PagerankColumn> columns;
  for (const TransitionMatrix& transition : transitions) {
    columns.push_back({&transition, {}});
  }
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  int64_t column_iterations = 0;
  for (auto _ : state) {
    column_iterations = 0;
    if (batched) {
      auto results = SolvePagerankBatch(graph, columns, teleport);
      D2PR_CHECK(results.ok());
      for (const PagerankResult& result : *results) {
        column_iterations += result.iterations;
      }
      benchmark::DoNotOptimize(results->data());
    } else {
      for (const PagerankColumn& column : columns) {
        auto result =
            SolvePagerank(graph, *column.transition, teleport, column.options);
        D2PR_CHECK(result.ok());
        column_iterations += result->iterations;
        benchmark::DoNotOptimize(result->scores.data());
      }
    }
  }
  state.counters["column_iterations"] =
      static_cast<double>(column_iterations);
}
BENCHMARK(BM_PowerBatch)
    ->ArgNames({"nodes", "K", "batched", "sinks"})
    ->ArgsProduct({{10000, 100000}, {1, 6, 17}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace d2pr

BENCHMARK_MAIN();
