#include "common/single_flight_lru.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/transition.h"
#include "datagen/classic_generators.h"

namespace d2pr {
namespace {

using MatrixLru =
    SingleFlightLru<TransitionKey, std::shared_ptr<const TransitionMatrix>>;

std::shared_ptr<const TransitionMatrix> BuildShared(const CsrGraph& graph,
                                                    double p) {
  auto built = TransitionMatrix::Build(graph, {.p = p});
  EXPECT_TRUE(built.ok());
  return std::make_shared<const TransitionMatrix>(std::move(built).value());
}

/// Spins until `done()` holds, failing the test after 10 s instead of
/// hanging it.
template <typename Predicate>
bool WaitFor(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(SingleFlightLruTest, HitAndMissAccounting) {
  Rng rng(1);
  auto graph = ErdosRenyi(50, 150, &rng);
  ASSERT_TRUE(graph.ok());
  MatrixLru cache(4);
  const TransitionKey key{0.5, 0.0, DegreeMetric::kOutDegree};
  int builds = 0;
  auto build = [&] {
    ++builds;
    return BuildShared(*graph, 0.5);
  };

  bool hit = true;
  auto first = cache.GetOrBuild(key, build, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  auto second = cache.GetOrBuild(key, build, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SingleFlightLruTest, DistinctKeysDoNotCollide) {
  SingleFlightLru<TransitionKey, int> cache(4);
  int builds = 0;
  auto build = [&] { return ++builds; };
  cache.GetOrBuild({0.5, 0.0, DegreeMetric::kOutDegree}, build);
  cache.GetOrBuild({0.6, 0.0, DegreeMetric::kOutDegree}, build);
  cache.GetOrBuild({0.5, 0.5, DegreeMetric::kOutDegree}, build);
  cache.GetOrBuild({0.5, 0.0, DegreeMetric::kInDegree}, build);
  EXPECT_EQ(builds, 4);

  bool hit = false;
  auto value =
      cache.GetOrBuild({0.5, 0.0, DegreeMetric::kOutDegree}, build, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(*value, 1);
  EXPECT_EQ(builds, 4);
}

TEST(SingleFlightLruTest, EvictsLeastRecentlyUsed) {
  SingleFlightLru<std::string, int> cache(2);
  int builds = 0;
  auto build = [&] { return ++builds; };
  cache.GetOrBuild("a", build);
  cache.GetOrBuild("b", build);
  // Touch `a` so `b` becomes the eviction victim.
  cache.GetOrBuild("a", build);
  cache.GetOrBuild("c", build);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"c", "a"}));
  bool hit = false;
  cache.GetOrBuild("b", build, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 4);
  // Rebuilding `b` evicted `a`, now the least recently used.
  EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"b", "c"}));
}

TEST(SingleFlightLruTest, SharedOwnershipSurvivesEviction) {
  Rng rng(4);
  auto graph = ErdosRenyi(40, 120, &rng);
  ASSERT_TRUE(graph.ok());
  MatrixLru cache(1);
  const TransitionKey a{1.0, 0.0, DegreeMetric::kOutDegree};
  auto held = cache.GetOrBuild(a, [&] { return BuildShared(*graph, 1.0); });
  ASSERT_TRUE(held.ok());
  cache.GetOrBuild({2.0, 0.0, DegreeMetric::kOutDegree},
                   [&] { return BuildShared(*graph, 2.0); });  // evicts `a`
  ASSERT_EQ(cache.Keys().size(), 1u);
  EXPECT_EQ(cache.Keys()[0].p, 2.0);
  // The evicted matrix stays valid for holders of the shared_ptr.
  EXPECT_EQ((*held)->num_nodes(), 40);
  EXPECT_FALSE((*held)->factors().c.empty());
}

TEST(SingleFlightLruTest, RebuildAfterEvictionRefreshesValueWithoutGrowth) {
  SingleFlightLru<std::string, int> cache(2);
  cache.GetOrBuild("a", [] { return 1; });
  cache.GetOrBuild("b", [] { return 2; });
  cache.GetOrBuild("c", [] { return 3; });  // evicts `a`
  auto rebuilt = cache.GetOrBuild("a", [] { return 10; });
  EXPECT_EQ(*rebuilt, 10);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"a", "c"}));
  // Keys leaves recency and the counters alone.
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 4);
  // The resident entry holds the rebuilt value.
  bool hit = false;
  EXPECT_EQ(*cache.GetOrBuild("a", [] { return -1; }, &hit), 10);
  EXPECT_TRUE(hit);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(SingleFlightLruTest, FailedBuildCachesNothing) {
  SingleFlightLru<std::string, int> cache(4);
  auto failed = cache.GetOrBuild(
      "a", []() -> Result<int> { return Status::IoError("x"); });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(cache.size(), 0u);
  bool hit = true;
  auto retried = cache.GetOrBuild("a", [] { return 7; }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(*retried, 7);
}

TEST(SingleFlightLruTest, ConcurrentMissesOnOneKeyBuildOnce) {
  constexpr int kThreads = 8;
  SingleFlightLru<std::string, int> cache(4);
  std::atomic<int> builds{0};
  std::atomic<bool> all_missed{false};
  auto build = [&] {
    ++builds;
    // Hold the build until every other thread has missed: each counts its
    // miss and starts waiting under one lock hold, so from here on they
    // are all parked on this build.
    all_missed = WaitFor([&] { return cache.misses() == kThreads; });
    return 42;
  };

  std::vector<int> values(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto value = cache.GetOrBuild("key", build);
      values[t] = value.ok() ? *value : -1;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_TRUE(all_missed);
  EXPECT_EQ(builds.load(), 1);
  for (int value : values) EXPECT_EQ(value, 42);
  // Every waiter took the landed entry on its re-check.
  EXPECT_EQ(cache.hits(), kThreads - 1);
  EXPECT_EQ(cache.misses(), kThreads);
}

TEST(SingleFlightLruTest, FailedBuildWakesWaitersWhichRetryOneAtATime) {
  constexpr int kThreads = 4;
  SingleFlightLru<std::string, int> cache(4);
  std::atomic<int> builds{0};
  std::atomic<int> building_now{0};
  std::atomic<int> max_building{0};
  std::atomic<bool> all_missed{false};
  auto build = [&]() -> Result<int> {
    const int concurrent = ++building_now;
    int seen = max_building.load();
    while (seen < concurrent &&
           !max_building.compare_exchange_weak(seen, concurrent)) {
    }
    if (++builds == 1) {
      all_missed = WaitFor([&] { return cache.misses() >= kThreads; });
    }
    --building_now;
    return Status::IoError("disk on fire");
  };

  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { statuses[t] = cache.GetOrBuild("key", build).status(); });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_TRUE(all_missed);
  // Nothing ever lands, so each woken waiter retries the build itself —
  // one at a time — and reports the same error.
  EXPECT_EQ(builds.load(), kThreads);
  EXPECT_EQ(max_building.load(), 1);
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_EQ(status.message(), "disk on fire");
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(SingleFlightLruTest, ZeroCapacityBuildsEveryCallAndNeverWaits) {
  SingleFlightLru<std::string, int> cache(0);
  std::atomic<int> inside{0};
  std::atomic<int> overlapped{0};
  // Both builds of one key must be in flight at once: a waiting second
  // caller would never let the first see two builders.
  auto build = [&] {
    ++inside;
    if (WaitFor([&] { return inside.load() == 2; })) ++overlapped;
    return 1;
  };
  std::thread other([&] { cache.GetOrBuild("key", build); });
  bool hit = true;
  cache.GetOrBuild("key", build, &hit);
  other.join();

  EXPECT_EQ(overlapped.load(), 2);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0u);
  cache.GetOrBuild("key", [] { return 2; }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
}

}  // namespace
}  // namespace d2pr
