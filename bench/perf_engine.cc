// Microbenchmarks for the serving engine: what transition caching, warm
// starts, and batch execution buy over one-shot free-function calls.

#include <benchmark/benchmark.h>

#include "api/engine.h"
#include "common/rng.h"
#include "core/sweeps.h"
#include "datagen/classic_generators.h"

namespace d2pr {
namespace {

CsrGraph MakeGraph(int64_t nodes) {
  Rng rng(42);
  auto graph = BarabasiAlbert(static_cast<NodeId>(nodes), 4, &rng);
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

// One-shot path: every query rebuilds the transition and cold-solves.
void BM_RankOneShot(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  D2prOptions options;
  options.p = 0.5;
  options.tolerance = 1e-9;
  for (auto _ : state) {
    auto result = ComputeD2pr(graph, options);
    benchmark::DoNotOptimize(result->scores.data());
  }
}
BENCHMARK(BM_RankOneShot)->Arg(1000)->Arg(10000);

// Serving path: the engine reuses the cached transition across queries.
void BM_RankEngineCached(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  D2prEngine engine = D2prEngine::Borrowing(graph);
  RankRequest request;
  request.p = 0.5;
  request.tolerance = 1e-9;
  for (auto _ : state) {
    auto response = engine.Rank(request);
    benchmark::DoNotOptimize(response->scores.data());
  }
}
BENCHMARK(BM_RankEngineCached)->Arg(1000)->Arg(10000);

// The paper's p grid as 17 independent one-shot solves (ComputeD2pr: a
// call-scoped engine per point, so every point rebuilds its transition
// and solves alone) versus SweepP on one long-lived engine (its cache
// holds the 17 transitions after the first round, and RankBatch solves
// the grid in batched passes of up to kMaxBatchColumns points). Both
// sides solve every point cold.
void BM_SweepPCold(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(10000);
  D2prOptions base;
  base.tolerance = 1e-9;
  const std::vector<double> grid = PaperPGrid();
  for (auto _ : state) {
    for (double p : grid) {
      D2prOptions options = base;
      options.p = p;
      auto result = ComputeD2pr(graph, options);
      benchmark::DoNotOptimize(result->scores.data());
    }
  }
}
BENCHMARK(BM_SweepPCold);

void BM_SweepPEngine(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(10000);
  D2prEngine engine = D2prEngine::Borrowing(graph);
  D2prOptions base;
  base.tolerance = 1e-9;
  const std::vector<double> grid = PaperPGrid();
  for (auto _ : state) {
    auto sweep = SweepP(engine, grid, base);
    benchmark::DoNotOptimize(sweep->data());
  }
}
BENCHMARK(BM_SweepPEngine);

// Personalized batch serving: many seed queries against one cached
// transition model.
void BM_RankBatchPersonalized(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(10000);
  D2prEngine engine = D2prEngine::Borrowing(graph);
  std::vector<RankRequest> requests;
  for (NodeId seed = 0; seed < static_cast<NodeId>(state.range(0)); ++seed) {
    RankRequest request;
    request.p = 0.5;
    request.method = SolverMethod::kForwardPush;
    request.push_epsilon = 1e-6;
    request.seeds = {seed};
    requests.push_back(request);
  }
  for (auto _ : state) {
    auto responses = engine.RankBatch(requests);
    benchmark::DoNotOptimize(responses->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests.size()));
}
BENCHMARK(BM_RankBatchPersonalized)->Arg(8)->Arg(64);

}  // namespace
}  // namespace d2pr

BENCHMARK_MAIN();
