// Microbenchmarks for the approximate top-k serving tier: what
// degree-pruned bounded push (TopKSolver, certified early termination)
// buys over serving the same query exactly and truncating — the full
// forward-push solve, and the exact power solve — at k in {10, 100}.
// Run results are recorded in results/topk_bench.md.

#include <benchmark/benchmark.h>

#include "api/engine.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"

namespace d2pr {
namespace {

CsrGraph MakeGraph(int64_t nodes) {
  Rng rng(42);
  auto graph = BarabasiAlbert(static_cast<NodeId>(nodes), 4, &rng);
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

RankRequest PersonalizedPush(NodeId seed) {
  RankRequest request;
  request.p = 0.5;
  request.method = SolverMethod::kForwardPush;
  request.push_epsilon = 1e-8;
  request.seeds = {seed};
  return request;
}

/// Certified bounded push: terminates as soon as the top-k set certifies.
/// Arg(0) = nodes, Arg(1) = k.
void BM_TopKBoundedPush(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  D2prEngine engine = D2prEngine::Borrowing(graph);
  RankRequest request = PersonalizedPush(7);
  request.top_k = static_cast<int>(state.range(1));
  // Resolve the transition + bound index outside the timed region: both
  // are cached per (graph, p, beta, metric) in serving, so steady-state
  // latency is what the solve itself costs.
  D2PR_CHECK(engine.Rank(request).ok());
  int64_t pushes = 0;
  for (auto _ : state) {
    auto response = engine.Rank(request);
    pushes += response->pushes;
    benchmark::DoNotOptimize(response->top.data());
  }
  state.counters["pushes"] = static_cast<double>(
      pushes / std::max<int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_TopKBoundedPush)
    ->Args({10000, 10})
    ->Args({10000, 100})
    ->Args({100000, 10})
    ->Args({100000, 100});

/// The same query served exactly by forward push to the epsilon floor,
/// then truncated — what top-k serving cost before the bounded solver.
void BM_TopKFullPushThenTruncate(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  D2prEngine engine = D2prEngine::Borrowing(graph);
  RankRequest full = PersonalizedPush(7);
  D2PR_CHECK(engine.Rank(full).ok());
  const int top_k = static_cast<int>(state.range(1));
  int64_t pushes = 0;
  for (auto _ : state) {
    auto response = engine.Rank(full);
    auto truncated = TruncateToTopK(response->scores, top_k);
    pushes += response->pushes;
    benchmark::DoNotOptimize(truncated.data());
  }
  state.counters["pushes"] = static_cast<double>(
      pushes / std::max<int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_TopKFullPushThenTruncate)
    ->Args({10000, 10})
    ->Args({10000, 100})
    ->Args({100000, 10})
    ->Args({100000, 100});

/// Exact power-iteration serving with engine-side truncation
/// (request.top_k on a kPower request): the certified-exact baseline.
void BM_TopKExactPowerTruncated(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(state.range(0));
  D2prEngine engine = D2prEngine::Borrowing(graph);
  RankRequest request;
  request.p = 0.5;
  request.tolerance = 1e-9;
  request.seeds = {7};
  request.top_k = static_cast<int>(state.range(1));
  D2PR_CHECK(engine.Rank(request).ok());
  for (auto _ : state) {
    auto response = engine.Rank(request);
    benchmark::DoNotOptimize(response->top.data());
  }
}
BENCHMARK(BM_TopKExactPowerTruncated)
    ->Args({10000, 10})
    ->Args({10000, 100})
    ->Args({100000, 10})
    ->Args({100000, 100});

/// The locality regime certification was built for: a non-hub seed at
/// strong teleport (alpha 0.3) concentrates the exact top-k inside the
/// seed's neighborhood, so bounded push certifies all of k with gap 0
/// after touching a few hundred nodes — while any exact solver still
/// pays for the whole graph. Arg(0) = k.
void BM_TopKCertifiedLocalPush(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(100000);
  D2prEngine engine = D2prEngine::Borrowing(graph);
  RankRequest request;
  request.p = 0.5;
  request.alpha = 0.3;
  request.method = SolverMethod::kForwardPush;
  request.push_epsilon = 1e-6;
  request.seeds = {50000};
  request.top_k = static_cast<int>(state.range(0));
  D2PR_CHECK(engine.Rank(request).ok());
  int64_t pushes = 0;
  int64_t certified = 0;
  for (auto _ : state) {
    auto response = engine.Rank(request);
    pushes += response->pushes;
    for (const auto& entry : response->top) certified += entry.certified;
    benchmark::DoNotOptimize(response->top.data());
  }
  const int64_t iters = std::max<int64_t>(state.iterations(), 1);
  state.counters["pushes"] = static_cast<double>(pushes / iters);
  state.counters["certified"] = static_cast<double>(certified / iters);
}
BENCHMARK(BM_TopKCertifiedLocalPush)->Arg(10)->Arg(100);

/// The exact baseline for the locality regime: same request served by
/// power iteration to 1e-9 and truncated. Every iteration is O(|E|)
/// regardless of how local the query is.
void BM_TopKExactPowerLocal(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(100000);
  D2prEngine engine = D2prEngine::Borrowing(graph);
  RankRequest request;
  request.p = 0.5;
  request.alpha = 0.3;
  request.tolerance = 1e-9;
  request.seeds = {50000};
  request.top_k = static_cast<int>(state.range(0));
  D2PR_CHECK(engine.Rank(request).ok());
  for (auto _ : state) {
    auto response = engine.Rank(request);
    benchmark::DoNotOptimize(response->top.data());
  }
}
BENCHMARK(BM_TopKExactPowerLocal)->Arg(10)->Arg(100);

/// Global (unseeded) top-k: the hardest regime for pruning — mass is
/// spread across the whole graph, so certification leans entirely on the
/// degree bounds separating the head from the body.
void BM_TopKGlobalBoundedPush(benchmark::State& state) {
  const CsrGraph graph = MakeGraph(10000);
  D2prEngine engine = D2prEngine::Borrowing(graph);
  RankRequest request;
  request.p = 0.5;
  request.method = SolverMethod::kForwardPush;
  request.push_epsilon = 1e-8;
  request.top_k = static_cast<int>(state.range(0));
  D2PR_CHECK(engine.Rank(request).ok());
  for (auto _ : state) {
    auto response = engine.Rank(request);
    benchmark::DoNotOptimize(response->top.data());
  }
}
BENCHMARK(BM_TopKGlobalBoundedPush)->Arg(10)->Arg(100);

/// Forward push on a directed graph with dangling nodes: the out-arcs of
/// BA(100k, 4), each node keeping all of them or (28%) none. Every
/// dangling push re-injects its mass through the seed (kTeleport) or
/// drops it (kRenormalize); re-injection walks the seed's support, one
/// node here. No end-to-end workload has dangling nodes. Arg(0) = 1
/// re-injects, 0 drops.
void BM_DanglingPush(benchmark::State& state) {
  const CsrGraph undirected = MakeGraph(100000);
  Rng rng(7);
  GraphBuilder builder(undirected.num_nodes(), GraphKind::kDirected);
  for (NodeId u = 0; u < undirected.num_nodes(); ++u) {
    if (rng.Uniform() < 0.28) continue;
    for (NodeId v : undirected.OutNeighbors(u)) {
      D2PR_CHECK(builder.AddEdge(u, v).ok());
    }
  }
  auto graph = builder.Build();
  D2PR_CHECK(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  NodeId seed = 50000;
  while (graph->OutDegree(seed) == 0) ++seed;
  RankRequest request = PersonalizedPush(seed);
  request.push_epsilon = 1e-6;
  request.dangling = state.range(0) != 0 ? DanglingPolicy::kTeleport
                                         : DanglingPolicy::kRenormalize;
  D2PR_CHECK(engine.Rank(request).ok());
  int64_t pushes = 0;
  for (auto _ : state) {
    auto response = engine.Rank(request);
    pushes += response->pushes;
    benchmark::DoNotOptimize(response->scores.data());
  }
  state.counters["pushes"] = static_cast<double>(
      pushes / std::max<int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_DanglingPush)->Arg(1)->Arg(0);

}  // namespace
}  // namespace d2pr

BENCHMARK_MAIN();
