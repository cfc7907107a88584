// Microbenchmarks for the persistent transition store: what a warm
// cache_dir buys a restarting serving process.
//
// The serving cold-start cost is (transition build) + (first solve); the
// store replaces the O(|E|) build with an mmap, a checksum pass and an
// O(|V|) copy of the factors. The pairs below measure the replacement in
// isolation (Build vs Load) and end-to-end (fresh engine answering its
// first query without and with a warm store).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "api/engine.h"
#include "api/transition_store.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "graph/graph_fingerprint.h"

namespace d2pr {
namespace {

CsrGraph MakeGraph(int64_t nodes) {
  Rng rng(42);
  auto graph = BarabasiAlbert(static_cast<NodeId>(nodes), 4, &rng);
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

std::string StoreDir(const benchmark::State& state) {
  return std::filesystem::temp_directory_path().string() +
         "/d2pr_perf_persist_" + std::to_string(state.range(0));
}

// Warms the store with the benchmark's single key and returns the dir.
std::string WarmStore(const CsrGraph& graph, benchmark::State& state) {
  const std::string dir = StoreDir(state);
  std::filesystem::remove_all(dir);
  EngineOptions options;
  options.cache_dir = dir;
  D2prEngine warmer = D2prEngine::Borrowing(graph, options);
  RankRequest request;
  request.p = 0.5;
  auto response = warmer.Rank(request);
  D2PR_CHECK(response.ok());
  return dir;
}

// Baseline: the O(|E|) rebuild every restart pays without a store.
void BM_ColdTransitionBuild(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  for (auto _ : state) {
    auto built = TransitionMatrix::Build(graph, {.p = 0.5});
    benchmark::DoNotOptimize(built->factors().c.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdTransitionBuild)->Arg(10000)->Arg(100000);

// The store path: mmap + gate checks + checksum pass over the O(|V|)
// payload + copy of the factors.
void BM_StoreLoad(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  const std::string dir = WarmStore(graph, state);
  TransitionStore store(dir);
  const uint64_t fp = GraphFingerprint(graph);
  const TransitionKey key{0.5, 0.0, DegreeMetric::kOutDegree};
  for (auto _ : state) {
    auto loaded = store.Load(fp, key, graph.num_nodes(), graph.num_arcs());
    D2PR_CHECK(loaded.ok());
    benchmark::DoNotOptimize((*loaded)->factors().c.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreLoad)->Arg(10000)->Arg(100000);

// End-to-end restart: fresh engine, first query, no store. Every
// iteration stands up a new engine — the "process restart" unit.
void BM_RestartFirstQueryCold(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  RankRequest request;
  request.p = 0.5;
  for (auto _ : state) {
    D2prEngine engine = D2prEngine::Borrowing(graph);
    auto response = engine.Rank(request);
    benchmark::DoNotOptimize(response->scores.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RestartFirstQueryCold)->Arg(10000)->Arg(100000);

void BM_RestartFirstQueryWarmStore(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  const std::string dir = WarmStore(graph, state);
  RankRequest request;
  request.p = 0.5;
  for (auto _ : state) {
    EngineOptions options;
    options.cache_dir = dir;
    D2prEngine engine = D2prEngine::Borrowing(graph, options);
    auto response = engine.Rank(request);
    benchmark::DoNotOptimize(response->scores.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RestartFirstQueryWarmStore)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace d2pr

BENCHMARK_MAIN();
