// Microbenchmarks for transition construction, including the ablation
// DESIGN.md calls out: the library's O(|V|) factors, computed in log space
// under one global shift (robust up to the representable exponent span),
// versus a naive per-arc metric^-p table (no shift: overflows for large
// degree·|p|, and O(|E|) state per p).

#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.h"
#include "core/transition.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"

namespace d2pr {
namespace {

CsrGraph MakeGraph(int64_t nodes) {
  Rng rng(7);
  auto graph = BarabasiAlbert(static_cast<NodeId>(nodes), 4, &rng);
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

void BM_BuildConventional(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  for (auto _ : state) {
    auto t = TransitionMatrix::Build(graph, {.p = 0.0});
    benchmark::DoNotOptimize(t->factors().c.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_arcs());
}
BENCHMARK(BM_BuildConventional)->Arg(10000)->Arg(100000);

void BM_BuildDecoupled(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  for (auto _ : state) {
    auto t = TransitionMatrix::Build(graph, {.p = 0.5});
    benchmark::DoNotOptimize(t->factors().c.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_arcs());
}
BENCHMARK(BM_BuildDecoupled)->Arg(10000)->Arg(100000);

// Ablation baseline: direct pow() per arc without log-space protection.
// Numerically identical to the library for moderate |p| but overflows
// double once deg^|p| exceeds ~1e308 (e.g. deg 1000, |p| 103).
std::vector<double> NaivePowTransition(const CsrGraph& graph, double p) {
  const NodeId n = graph.num_nodes();
  std::vector<double> metric(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    metric[static_cast<size_t>(v)] =
        std::pow(static_cast<double>(graph.OutDegree(v)), -p);
  }
  std::vector<double> probs(static_cast<size_t>(graph.num_arcs()));
  for (NodeId i = 0; i < n; ++i) {
    const EdgeIndex begin = graph.ArcBegin(i);
    const EdgeIndex end = begin + graph.OutDegree(i);
    double total = 0.0;
    for (EdgeIndex e = begin; e < end; ++e) {
      total += metric[static_cast<size_t>(
          graph.targets()[static_cast<size_t>(e)])];
    }
    for (EdgeIndex e = begin; e < end; ++e) {
      probs[static_cast<size_t>(e)] =
          metric[static_cast<size_t>(
              graph.targets()[static_cast<size_t>(e)])] /
          total;
    }
  }
  return probs;
}

void BM_AblationNaivePow(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  for (auto _ : state) {
    auto probs = NaivePowTransition(graph, 0.5);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_arcs());
}
BENCHMARK(BM_AblationNaivePow)->Arg(10000)->Arg(100000);

void BM_BuildWeightedBlend(benchmark::State& state) {
  Rng rng(11);
  auto unweighted = BarabasiAlbert(20000, 4, &rng);
  D2PR_CHECK(unweighted.ok());
  // Re-add with random weights.
  GraphBuilder builder(unweighted->num_nodes(), GraphKind::kUndirected,
                       /*weighted=*/true);
  for (NodeId u = 0; u < unweighted->num_nodes(); ++u) {
    for (NodeId v : unweighted->OutNeighbors(u)) {
      if (v > u) {
        D2PR_CHECK(builder.AddEdge(u, v, 1.0 + rng.Uniform() * 9.0).ok());
      }
    }
  }
  auto graph = builder.Build();
  D2PR_CHECK(graph.ok());
  for (auto _ : state) {
    auto t = TransitionMatrix::Build(*graph, {.p = 0.5, .beta = 0.5});
    benchmark::DoNotOptimize(t->factors().c.data());
  }
  state.SetItemsProcessed(state.iterations() * graph->num_arcs());
}
BENCHMARK(BM_BuildWeightedBlend);

}  // namespace
}  // namespace d2pr

BENCHMARK_MAIN();
