// Engine thread-safety regressions: EngineStats counters must stay exact
// under concurrent Rank calls (plain int64 counters would race and
// undercount), concurrent misses on one transition key must build it
// exactly once (single-flight), per-thread warm-start trajectories on a
// shared engine must reproduce the single-threaded results, concurrent
// top-k requests on one key must build its bound index exactly once, and
// a ServingRuntime's ScoreCache must memoize every solve exactly once —
// and never serve another request's response — under concurrent traffic
// that forces evictions.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "serve/serving_runtime.h"

namespace d2pr {
namespace {

Result<CsrGraph> TestGraph(uint64_t seed, NodeId nodes = 200,
                           int64_t edges = 600) {
  Rng rng(seed);
  return ErdosRenyi(nodes, edges, &rng);
}

TEST(EngineConcurrencyTest, StatsCountersStayExactUnderConcurrentRank) {
  auto graph = TestGraph(11);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  const std::vector<double> p_values = {0.0, 0.5, 1.0, 1.5};

  std::atomic<int64_t> total_iterations{0};
  std::atomic<int64_t> cache_hits_seen{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int64_t iterations = 0;
      int64_t hits = 0;
      for (int i = 0; i < kPerThread; ++i) {
        RankRequest request;
        request.p = p_values[(t + i) % p_values.size()];
        request.tolerance = 1e-8;
        auto response = engine.Rank(request);
        if (!response.ok()) {
          ++failures;
          return;
        }
        iterations += response->iterations;
        if (response->transition_cache_hit) ++hits;
      }
      total_iterations += iterations;
      cache_hits_seen += hits;
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  constexpr int64_t kTotal = kThreads * kPerThread;
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.requests, kTotal);
  // Single-flight: each of the 4 distinct keys is built exactly once no
  // matter how many threads miss on it simultaneously.
  EXPECT_EQ(stats.transition_builds,
            static_cast<int64_t>(p_values.size()));
  // Every request either hit the cache or performed the build.
  EXPECT_EQ(stats.transition_cache_hits + stats.transition_builds, kTotal);
  EXPECT_EQ(stats.transition_cache_hits, cache_hits_seen.load());
  // The exactness regression: summed per-response iterations must equal
  // the engine's cumulative counter — lost increments would show here.
  EXPECT_EQ(stats.solver_iterations, total_iterations.load());
}

TEST(EngineConcurrencyTest, PushCountersAggregateExactly) {
  auto graph = TestGraph(12);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::atomic<int64_t> total_pushes{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int64_t pushes = 0;
      for (int i = 0; i < kPerThread; ++i) {
        RankRequest request;
        request.p = 0.5;
        request.method = SolverMethod::kForwardPush;
        request.push_epsilon = 1e-5;
        request.seeds = {static_cast<NodeId>((t * kPerThread + i) %
                                             engine.graph().num_nodes())};
        auto response = engine.Rank(request);
        if (!response.ok()) {
          ++failures;
          return;
        }
        pushes += response->pushes;
      }
      total_pushes += pushes;
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.push_operations, total_pushes.load());
  EXPECT_EQ(stats.transition_builds, 1);
}

TEST(EngineConcurrencyTest, PerThreadWarmTrajectoriesMatchSequential) {
  auto graph = TestGraph(13, 150, 450);
  ASSERT_TRUE(graph.ok());

  const std::vector<double> grid = {-1.0, -0.5, 0.0, 0.5, 1.0};
  auto make_request = [&](double p, const std::string& tag) {
    RankRequest request;
    request.p = p;
    request.tolerance = 1e-10;
    request.warm_start_tag = tag;
    return request;
  };

  // Sequential reference: one engine, one tag, the grid in order.
  D2prEngine reference = D2prEngine::Borrowing(*graph);
  std::vector<std::vector<double>> expected;
  for (double p : grid) {
    auto response = reference.Rank(make_request(p, "ref"));
    ASSERT_TRUE(response.ok());
    expected.push_back(response->scores);
  }

  // Concurrent: 4 threads share one engine, each walking its own tag.
  // Warm trajectories are per-tag state, so every thread must reproduce
  // the sequential scores bit-for-bit.
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string tag = "thread-" + std::to_string(t);
      for (size_t i = 0; i < grid.size(); ++i) {
        auto response = engine.Rank(make_request(grid[i], tag));
        if (!response.ok() || response->scores != expected[i]) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(engine.stats().warm_start_hits, 0);
}

TEST(EngineConcurrencyTest, RuntimeScoreCacheExactUnderTraffic) {
  auto graph = TestGraph(14);
  ASSERT_TRUE(graph.ok());

  // 16 distinct requests, half global, half personalized.
  std::vector<RankRequest> distinct;
  for (int i = 0; i < 16; ++i) {
    RankRequest request;
    request.tolerance = 1e-10;
    if (i < 8) {
      request.p = -0.8 + 0.3 * i;
    } else {
      request.p = 0.5;
      request.seeds = {static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                       static_cast<NodeId>(i + 2)};
    }
    distinct.push_back(std::move(request));
  }

  // Reference responses are deterministic per request, computed on a
  // separate engine.
  D2prEngine reference = D2prEngine::Borrowing(*graph);
  std::vector<std::vector<double>> expected;
  for (const RankRequest& request : distinct) {
    auto response = reference.Rank(request);
    ASSERT_TRUE(response.ok());
    expected.push_back(response->scores);
  }

  // Capacity 8 < 16 distinct keys: the LFU path must evict under load.
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  ServingRuntime runtime =
      ServingRuntime::Borrowing(engine, {.score_cache_capacity = 8});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 32;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t index =
            static_cast<size_t>(t * 5 + i) % distinct.size();
        auto response = runtime.Rank(distinct[index]);
        if (!response.ok()) {
          ++failures;
          return;
        }
        // A response built for any other request's key differs from the
        // deterministic reference and shows up here.
        if (response->scores != expected[index]) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  constexpr int64_t kTotal = kThreads * kPerThread;
  const ScoreCacheStats cache = runtime.score_cache().stats();
  // Exactness: every solve the engine ran is memoized exactly once, and
  // every call counts one lookup: a hit when served from the memo, a
  // miss when it solved.
  EXPECT_EQ(cache.insertions, engine.stats().requests.load());
  EXPECT_EQ(cache.insertions, cache.misses);
  EXPECT_EQ(cache.hits + cache.misses, kTotal);
  EXPECT_LE(runtime.score_cache().size(), 8u);
  // 16 distinct keys through an 8-entry cache force evictions.
  EXPECT_GE(cache.evictions, 8);
}

TEST(EngineConcurrencyTest, ConcurrentTopKPushesBuildOneBoundIndex) {
  // Large enough that the concurrent first misses overlap the build.
  auto graph = TestGraph(15, 20000, 100000);
  ASSERT_TRUE(graph.ok());
  D2prEngine engine = D2prEngine::Borrowing(*graph);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2;
  std::latch start(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        RankRequest request;
        request.p = 0.5;  // one transition key for every request
        request.method = SolverMethod::kForwardPush;
        request.seeds = {static_cast<NodeId>(t * kPerThread + i)};
        request.top_k = 5;
        if (!engine.Rank(request).ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.transition_resolver().builds(), 1);
  EXPECT_EQ(engine.transition_resolver().bound_builds(), 1);
}

}  // namespace
}  // namespace d2pr
