// Restart parity: an engine that loads its transitions from the
// persistent store must be indistinguishable — bit for bit — from the
// engine that built them. Engine A solves and persists; engine B
// "restarts" on the same cache_dir and must reproduce every score,
// iteration count, and convergence flag exactly, with EngineStats proving
// that not a single transition Build ran after the restart. The same
// holds for an edge-partitioned EngineRouter restarting on a store an
// engine wrote.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "serve/engine_router.h"

namespace d2pr {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/d2pr_persist_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

size_t StoreFileCount(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return 0;
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".d2ptm") ++count;
  }
  return count;
}

// A request mix covering all three solvers, several transition keys, and
// both global and personalized teleportation.
std::vector<RankRequest> ParityRequests() {
  std::vector<RankRequest> requests;
  for (const double p : {-0.5, 0.0, 0.75}) {
    RankRequest power;
    power.p = p;
    power.tolerance = 1e-11;
    requests.push_back(power);

    RankRequest gs = power;
    gs.method = SolverMethod::kGaussSeidel;
    requests.push_back(gs);

    RankRequest push = power;
    push.method = SolverMethod::kForwardPush;
    push.push_epsilon = 1e-7;
    push.seeds = {1, 7};
    requests.push_back(push);
  }
  return requests;
}

void ExpectBitIdentical(const RankResponse& restarted,
                        const RankResponse& reference) {
  ASSERT_EQ(restarted.scores.size(), reference.scores.size());
  for (size_t i = 0; i < reference.scores.size(); ++i) {
    // Exact double equality on purpose: the loaded matrix is the same
    // bytes, so every solver must walk the same float path.
    ASSERT_EQ(restarted.scores[i], reference.scores[i]) << "score " << i;
  }
  EXPECT_EQ(restarted.iterations, reference.iterations);
  EXPECT_EQ(restarted.pushes, reference.pushes);
  EXPECT_EQ(restarted.converged, reference.converged);
  EXPECT_EQ(restarted.residual, reference.residual);
  EXPECT_EQ(restarted.warm_start_hit, reference.warm_start_hit);
}

TEST(PersistParityTest, RestartReproducesAllSolversBitIdentically) {
  Rng rng(31);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("solvers");
  const std::vector<RankRequest> requests = ParityRequests();

  EngineOptions options;
  options.cache_dir = dir;
  std::vector<RankResponse> reference;
  {
    D2prEngine engine_a = D2prEngine::Borrowing(*graph, options);
    for (const RankRequest& request : requests) {
      auto response = engine_a.Rank(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      reference.push_back(std::move(response).value());
    }
    EXPECT_EQ(engine_a.stats().transition_builds, 3);  // 3 distinct keys
    EXPECT_EQ(engine_a.stats().transition_store_saves, 3);
  }  // engine A "process" exits

  D2prEngine engine_b = D2prEngine::Borrowing(*graph, options);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    auto response = engine_b.Rank(requests[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectBitIdentical(*response, reference[i]);
    EXPECT_FALSE(reference[i].transition_store_hit);
    if (!response->transition_cache_hit) {
      EXPECT_TRUE(response->transition_store_hit);
    }
  }
  const EngineStats stats = engine_b.stats();
  EXPECT_EQ(stats.transition_builds, 0) << "restart must never rebuild";
  EXPECT_EQ(stats.transition_store_loads, 3);
}

TEST(PersistParityTest, RestartParityOnWeightedBlendedGraph) {
  GraphBuilder builder(40, GraphKind::kDirected, /*weighted=*/true);
  Rng rng(32);
  for (int e = 0; e < 160; ++e) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(0, 39));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(0, 39));
    ASSERT_TRUE(builder.AddEdge(u, v, rng.Uniform() + 0.25).ok());
  }
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("weighted");

  RankRequest request;
  request.p = 1.25;
  request.beta = 0.4;
  request.tolerance = 1e-11;

  EngineOptions options;
  options.cache_dir = dir;
  RankResponse reference = [&] {
    D2prEngine engine_a = D2prEngine::Borrowing(*graph, options);
    auto response = engine_a.Rank(request);
    EXPECT_TRUE(response.ok());
    return std::move(response).value();
  }();

  D2prEngine engine_b = D2prEngine::Borrowing(*graph, options);
  auto restarted = engine_b.Rank(request);
  ASSERT_TRUE(restarted.ok());
  ExpectBitIdentical(*restarted, reference);
  EXPECT_EQ(engine_b.stats().transition_builds, 0);
  EXPECT_EQ(engine_b.stats().transition_store_loads, 1);
}

// The store must refuse to cross graphs: a restart on a *different* graph
// with the same cache_dir rebuilds (correctly) instead of loading.
TEST(PersistParityTest, DifferentGraphNeverReusesTheStore) {
  Rng rng(33);
  auto graph_a = ErdosRenyi(80, 240, &rng);
  auto graph_b = ErdosRenyi(80, 240, &rng);  // same sizes, different arcs
  ASSERT_TRUE(graph_a.ok());
  ASSERT_TRUE(graph_b.ok());
  const std::string dir = FreshDir("crossgraph");

  RankRequest request;
  request.p = 0.5;
  EngineOptions options;
  options.cache_dir = dir;
  {
    D2prEngine engine_a = D2prEngine::Borrowing(*graph_a, options);
    ASSERT_TRUE(engine_a.Rank(request).ok());
  }
  D2prEngine engine_b = D2prEngine::Borrowing(*graph_b, options);
  ASSERT_TRUE(engine_b.Rank(request).ok());
  EXPECT_EQ(engine_b.stats().transition_store_loads, 0);
  EXPECT_EQ(engine_b.stats().transition_builds, 1);
}

// A partitioned router restarting over a cache_dir an engine wrote: its
// shared resolver maps the persisted matrices, zero builds, and the
// power batch stays bit-identical to a persistence-free single engine.
TEST(PersistParityTest, RouterSharedCacheDirRestartsWithZeroBuilds) {
  Rng rng(34);
  auto graph = BarabasiAlbert(250, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("router");

  std::vector<RankRequest> batch;
  for (int i = 0; i < 24; ++i) {
    RankRequest request;
    request.p = (i % 3) * 0.5;
    request.tolerance = 1e-11;
    batch.push_back(request);
  }

  // Reference: plain single engine, no persistence anywhere.
  D2prEngine reference_engine = D2prEngine::Borrowing(*graph);
  auto reference = reference_engine.RankBatch(batch);
  ASSERT_TRUE(reference.ok());

  // Warm the store (a previous serving process).
  EngineOptions persist_options;
  persist_options.cache_dir = dir;
  {
    D2prEngine warmer = D2prEngine::Borrowing(*graph, persist_options);
    for (const RankRequest& request : batch) {
      ASSERT_TRUE(warmer.Rank(request).ok());
    }
  }
  EXPECT_EQ(StoreFileCount(dir), 3u);

  for (const size_t num_shards : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << num_shards << " shards");
    RouterOptions router_options;
    router_options.num_shards = num_shards;
    router_options.engine_options = persist_options;
    EngineRouter router(reference_engine.graph_ptr(), router_options);
    auto routed = router.RankBatch(batch);
    ASSERT_TRUE(routed.ok());
    ASSERT_EQ(routed->size(), reference->size());
    for (size_t i = 0; i < reference->size(); ++i) {
      SCOPED_TRACE(testing::Message() << "request " << i);
      ExpectBitIdentical((*routed)[i], (*reference)[i]);
    }
    EXPECT_EQ(router.transition_resolver().builds(), 0)
        << "restarted router must never rebuild";
    EXPECT_EQ(router.transition_resolver().store_loads(), 3);  // one per key
  }
}

// A corrupt store file forces a rebuild; the write-through spill after
// that build must replace the corrupt file (not skip it because "a file
// exists"), so the next restart loads cleanly again.
TEST(PersistParityTest, WriteThroughReplacesCorruptStoreFile) {
  Rng rng(38);
  auto graph = ErdosRenyi(60, 180, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("heal");

  RankRequest request;
  request.p = 0.5;
  EngineOptions options;
  options.cache_dir = dir;
  {
    D2prEngine warmer = D2prEngine::Borrowing(*graph, options);
    ASSERT_TRUE(warmer.Rank(request).ok());
  }

  // Corrupt the persisted payload.
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(100);
    file.put('\x7f');
  }

  {
    D2prEngine engine = D2prEngine::Borrowing(*graph, options);
    ASSERT_TRUE(engine.Rank(request).ok());
    EXPECT_EQ(engine.stats().transition_builds, 1) << "corrupt file rebuilt";
    EXPECT_EQ(engine.stats().transition_store_loads, 0);
    EXPECT_EQ(engine.stats().transition_store_saves, 1)
        << "the rebuild must overwrite the corrupt file";
  }

  D2prEngine healed = D2prEngine::Borrowing(*graph, options);
  ASSERT_TRUE(healed.Rank(request).ok());
  EXPECT_EQ(healed.stats().transition_store_loads, 1);
  EXPECT_EQ(healed.stats().transition_builds, 0);
}

TEST(PersistParityTest, ReadOnlyModeNeverWrites) {
  Rng rng(36);
  auto graph = ErdosRenyi(60, 180, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("readonly");

  EngineOptions options;
  options.cache_dir = dir;
  options.persist_mode = PersistMode::kReadOnly;
  D2prEngine engine = D2prEngine::Borrowing(*graph, options);
  RankRequest request;
  request.p = 0.5;
  ASSERT_TRUE(engine.Rank(request).ok());
  EXPECT_EQ(StoreFileCount(dir), 0u);
  EXPECT_EQ(engine.stats().transition_store_saves, 0);
}

TEST(PersistParityTest, WriteOnlyModeNeverLoads) {
  Rng rng(37);
  auto graph = ErdosRenyi(60, 180, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("writeonly");

  RankRequest request;
  request.p = 0.5;
  EngineOptions options;
  options.cache_dir = dir;
  {
    D2prEngine warmer = D2prEngine::Borrowing(*graph, options);
    ASSERT_TRUE(warmer.Rank(request).ok());
  }

  options.persist_mode = PersistMode::kWriteOnly;
  D2prEngine engine = D2prEngine::Borrowing(*graph, options);
  ASSERT_TRUE(engine.Rank(request).ok());
  EXPECT_EQ(engine.stats().transition_store_loads, 0);
  EXPECT_EQ(engine.stats().transition_builds, 1);
}

}  // namespace
}  // namespace d2pr
