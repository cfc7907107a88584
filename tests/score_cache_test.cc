// ScoreCache behavior: canonical request keys, LFU eviction with
// insertion-order tie-breaks at the entry budget, refresh in place, and
// hit/miss/insertion/eviction accounting.

#include "serve/score_cache.h"

#include <gtest/gtest.h>

#include <string>

namespace d2pr {
namespace {

RankResponse MakeResponse(double tag) {
  RankResponse response;
  response.scores = {tag, tag + 1.0, tag + 2.0};
  response.iterations = 7;
  response.converged = true;
  response.residual = 1e-11;
  return response;
}

TEST(ScoreCacheTest, KeyCanonicalizesIdenticalRequests) {
  RankRequest a;
  a.p = 0.5;
  a.seeds = {3, 17};
  RankRequest b = a;
  EXPECT_EQ(ScoreCache::KeyFor(a), ScoreCache::KeyFor(b));
  // The warm-start tag never reaches the key: tagged requests bypass the
  // cache entirely, so the tag must not fragment it for anyone else.
  b.warm_start_tag = "sweep";
  EXPECT_EQ(ScoreCache::KeyFor(a), ScoreCache::KeyFor(b));
}

TEST(ScoreCacheTest, KeySeparatesEveryResponseAffectingField) {
  const RankRequest base;
  const std::string base_key = ScoreCache::KeyFor(base);

  RankRequest changed = base;
  changed.p = 0.25;
  EXPECT_NE(ScoreCache::KeyFor(changed), base_key);
  changed = base;
  changed.alpha = 0.9;
  EXPECT_NE(ScoreCache::KeyFor(changed), base_key);
  changed = base;
  changed.tolerance = 1e-8;
  EXPECT_NE(ScoreCache::KeyFor(changed), base_key);
  changed = base;
  changed.max_iterations = 50;
  EXPECT_NE(ScoreCache::KeyFor(changed), base_key);
  changed = base;
  changed.method = SolverMethod::kGaussSeidel;
  EXPECT_NE(ScoreCache::KeyFor(changed), base_key);
  changed = base;
  changed.dangling = DanglingPolicy::kRenormalize;
  EXPECT_NE(ScoreCache::KeyFor(changed), base_key);
  changed = base;
  changed.seeds = {5};
  EXPECT_NE(ScoreCache::KeyFor(changed), base_key);
  changed = base;
  changed.seeds = {5, 6};
  EXPECT_NE(ScoreCache::KeyFor(changed), ScoreCache::KeyFor([&] {
              RankRequest two = base;
              two.seeds = {56};
              return two;
            }()));
}

TEST(ScoreCacheTest, KeySeparatesTopK) {
  RankRequest base;
  base.seeds = {3};
  RankRequest truncated = base;
  truncated.top_k = 10;
  EXPECT_NE(ScoreCache::KeyFor(base), ScoreCache::KeyFor(truncated));
  RankRequest other_k = base;
  other_k.top_k = 20;
  EXPECT_NE(ScoreCache::KeyFor(truncated), ScoreCache::KeyFor(other_k));
}

TEST(ScoreCacheTest, LookupReturnsInsertedResponse) {
  ScoreCache cache(8);
  EXPECT_FALSE(cache.Lookup("k").has_value());
  cache.CountMiss();  // the caller counts the miss it goes on to solve
  cache.Insert("k", MakeResponse(4.0));
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->scores, MakeResponse(4.0).scores);
  EXPECT_EQ(hit->iterations, 7);
  EXPECT_TRUE(hit->converged);

  const ScoreCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(ScoreCacheTest, LfuEvictsLeastFrequentlyUsed) {
  ScoreCache cache(2);
  cache.Insert("a", MakeResponse(1.0));
  cache.Insert("b", MakeResponse(2.0));
  // Make "a" the hot entry.
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("a").has_value());

  // Refreshing a resident key at full capacity evicts nothing, and the
  // refreshed entry keeps its use count: were it reset, "a" (the older
  // insertion) would lose the tie-break to "b" below.
  cache.Insert("a", MakeResponse(4.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().insertions, 3);

  cache.Insert("c", MakeResponse(3.0));  // over capacity: "b" (0 uses) goes
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("b").has_value());
  auto refreshed = cache.Lookup("a");
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_EQ(refreshed->scores, MakeResponse(4.0).scores);
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ScoreCacheTest, LfuTieBreaksByOldestInsertion) {
  ScoreCache cache(2);
  cache.Insert("old", MakeResponse(1.0));
  cache.Insert("new", MakeResponse(2.0));
  cache.Insert("c", MakeResponse(3.0));  // both have 0 uses: "old" goes
  EXPECT_FALSE(cache.Lookup("old").has_value());
  EXPECT_TRUE(cache.Lookup("new").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
}

TEST(ScoreCacheTest, ZeroCapacityDisablesCaching) {
  ScoreCache cache(0);
  cache.Insert("k", MakeResponse(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("k").has_value());
  EXPECT_EQ(cache.stats().insertions, 0);
}

}  // namespace
}  // namespace d2pr
