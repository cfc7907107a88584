// Partitioned vs whole-graph solve cost: what the edge-partitioned block
// iteration pays (or saves) against the monolithic reference at 10k and
// 100k nodes, for shard counts 1/2/4/8 and both partition schemes.
//
// The questions, one sweep each:
//   * BM_WholeGraphPower vs BM_PartitionedPowerSliced — the per-solve
//     overhead of the block formulation (in-CSR pull + global folds) as
//     shard count grows; scores are bit-identical by contract, so this
//     is a pure mechanics comparison. Each sweep gathers y = c∘x along
//     the shards' in-CSRs (core/transition_kernel.h).
//   * BM_PartitionedPowerPooled — the sliced sweep fanned across an
//     EngineRouter worker pool, i.e. what partitioned serving ships.
//   * BM_SliceBuild / BM_SliceBuildLocal — the per-p slice cost: sharing
//     a prebuilt matrix's factors (O(1)), and building them shard by
//     shard (each shard folds its owned and boundary rows against u from
//     the metric vector).
//   * BM_PartitionBuild — the one-time partitioning cost a deployment
//     amortizes over its whole serving lifetime.
//
// Numbers are recorded in results/partition_bench.md.

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/block_solver.h"
#include "core/pagerank.h"
#include "core/teleport.h"
#include "core/transition.h"
#include "core/transition_slices.h"
#include "datagen/classic_generators.h"
#include "graph/partition.h"
#include "serve/engine_router.h"

namespace d2pr {
namespace {

CsrGraph MakeGraph(NodeId nodes) {
  Rng rng(42);
  // Preferential attachment at m = 4: power-law degrees, ~4|V| edges —
  // the regime the paper's analysis targets.
  auto graph = BarabasiAlbert(nodes, 4, &rng);
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

const CsrGraph& GraphOf(int64_t nodes) {
  static const CsrGraph small = MakeGraph(10000);
  static const CsrGraph large = MakeGraph(100000);
  return nodes == 10000 ? small : large;
}

std::shared_ptr<const TransitionMatrix> BuildShared(const CsrGraph& graph) {
  auto t = TransitionMatrix::Build(graph, {.p = 0.5});
  D2PR_CHECK(t.ok());
  return std::make_shared<const TransitionMatrix>(std::move(t).value());
}

const std::shared_ptr<const TransitionMatrix>& TransitionOf(
    const CsrGraph& graph) {
  static const auto small = BuildShared(GraphOf(10000));
  static const auto large = BuildShared(GraphOf(100000));
  return graph.num_nodes() == 10000 ? small : large;
}

PagerankOptions SolveOptions() {
  PagerankOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 200;
  return options;
}

void BM_WholeGraphPower(benchmark::State& state) {
  const CsrGraph& graph = GraphOf(state.range(0));
  const TransitionMatrix& transition = *TransitionOf(graph);
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  int iterations = 0;
  for (auto _ : state) {
    auto solved = SolvePagerank(graph, transition, teleport, SolveOptions());
    D2PR_CHECK(solved.ok());
    iterations = solved->iterations;
    benchmark::DoNotOptimize(solved->scores.data());
  }
  state.counters["solver_iters"] = iterations;
}
BENCHMARK(BM_WholeGraphPower)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionedPowerSliced(benchmark::State& state) {
  const CsrGraph& graph = GraphOf(state.range(0));
  const auto scheme = static_cast<PartitionScheme>(state.range(2));
  auto partition = GraphPartition::Build(
      graph, {.scheme = scheme,
              .num_shards = static_cast<size_t>(state.range(1))});
  D2PR_CHECK(partition.ok());
  auto slices = BuildTransitionSlices(graph, *partition, TransitionOf(graph));
  D2PR_CHECK(slices.ok());
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  for (auto _ : state) {
    auto solved = SolvePagerankPartitioned(*slices, *partition, teleport,
                                           SolveOptions());
    D2PR_CHECK(solved.ok());
    benchmark::DoNotOptimize(solved->scores.data());
  }
  state.counters["boundary_frac"] = partition->BoundaryFraction();
}
BENCHMARK(BM_PartitionedPowerSliced)
    ->ArgsProduct({{10000, 100000},
                   {1, 2, 4, 8},
                   {static_cast<int>(PartitionScheme::kRange),
                    static_cast<int>(PartitionScheme::kHash)}})
    ->Unit(benchmark::kMillisecond);

void BM_SliceBuild(benchmark::State& state) {
  const CsrGraph& graph = GraphOf(state.range(0));
  auto partition = GraphPartition::Build(
      graph, {.scheme = PartitionScheme::kRange,
              .num_shards = static_cast<size_t>(state.range(1))});
  D2PR_CHECK(partition.ok());
  for (auto _ : state) {
    auto slices = BuildTransitionSlices(graph, *partition, TransitionOf(graph));
    D2PR_CHECK(slices.ok());
    benchmark::DoNotOptimize(slices->transition.get());
  }
}
BENCHMARK(BM_SliceBuild)
    ->ArgsProduct({{10000, 100000}, {2, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_SliceBuildLocal(benchmark::State& state) {
  const CsrGraph& graph = GraphOf(state.range(0));
  auto partition = GraphPartition::Build(
      graph, {.scheme = PartitionScheme::kRange,
              .num_shards = static_cast<size_t>(state.range(1))});
  D2PR_CHECK(partition.ok());
  for (auto _ : state) {
    auto slices = BuildTransitionSlicesLocal(graph, *partition, {.p = 0.5});
    D2PR_CHECK(slices.ok());
    benchmark::DoNotOptimize(slices->transition.get());
  }
}
BENCHMARK(BM_SliceBuildLocal)
    ->ArgsProduct({{10000, 100000}, {2, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_PartitionedPowerPooled(benchmark::State& state) {
  const CsrGraph& graph = GraphOf(state.range(0));
  EngineRouter router = EngineRouter::Borrowing(
      graph, {.num_shards = static_cast<size_t>(state.range(1)),
              .partition_scheme = PartitionScheme::kRange});
  RankRequest request;
  request.p = 0.5;
  request.tolerance = 1e-10;
  for (auto _ : state) {
    auto response = router.Rank(request);
    D2PR_CHECK(response.ok());
    benchmark::DoNotOptimize(response->scores.data());
  }
}
BENCHMARK(BM_PartitionedPowerPooled)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_PartitionBuild(benchmark::State& state) {
  const CsrGraph& graph = GraphOf(state.range(0));
  const auto scheme = static_cast<PartitionScheme>(state.range(2));
  for (auto _ : state) {
    auto partition = GraphPartition::Build(
        graph, {.scheme = scheme,
                .num_shards = static_cast<size_t>(state.range(1))});
    D2PR_CHECK(partition.ok());
    benchmark::DoNotOptimize(partition->boundary_arcs());
  }
}
BENCHMARK(BM_PartitionBuild)
    ->ArgsProduct({{10000, 100000},
                   {2, 8},
                   {static_cast<int>(PartitionScheme::kRange),
                    static_cast<int>(PartitionScheme::kHash)}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace d2pr

BENCHMARK_MAIN();
