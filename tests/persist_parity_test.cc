// Restart parity: an engine that loads its transitions from the
// persistent store must be indistinguishable — bit for bit — from the
// engine that built them. Engine A solves and persists; engine B
// "restarts" on the same cache_dir and must reproduce every score,
// iteration count, and convergence flag exactly, with EngineStats proving
// that not a single transition Build ran after the restart. A block
// solve over a store-mapped matrix is held to the same bit parity.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/transition_resolver.h"
#include "common/rng.h"
#include "core/block_solver.h"
#include "core/pagerank.h"
#include "core/teleport.h"
#include "core/transition_slices.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"

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

// A block solve over a matrix mapped back from a store an engine wrote
// is bit-identical to SolvePagerank over a freshly built matrix: the
// store round trip and the partition each preserve every float, so they
// compose. The resolver behind the restart maps all three keys and
// never rebuilds.
TEST(PersistParityTest, BlockSolveOverStoreMappedTransitionIsBitIdentical) {
  Rng rng(34);
  auto built_graph = BarabasiAlbert(250, 3, &rng);
  ASSERT_TRUE(built_graph.ok());
  const auto graph =
      std::make_shared<const CsrGraph>(std::move(built_graph).value());
  const std::string dir = FreshDir("block");
  constexpr double kPs[] = {0.0, 0.5, 1.0};

  // Warm the store (a previous serving process).
  EngineOptions persist_options;
  persist_options.cache_dir = dir;
  {
    D2prEngine warmer(graph, persist_options);
    for (const double p : kPs) {
      RankRequest request;
      request.p = p;
      ASSERT_TRUE(warmer.Rank(request).ok());
    }
  }
  EXPECT_EQ(StoreFileCount(dir), 3u);

  PagerankOptions options;
  options.tolerance = 1e-11;
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  TransitionResolver restarted(graph, persist_options);
  for (const double p : kPs) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    TransitionKey key;
    key.p = p;
    key.metric = ResolveMetric(*graph, DegreeMetric::kAuto);
    TransitionResolver::Outcome outcome;
    auto mapped = restarted.Resolve(key, &outcome);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(outcome.store_hit);

    auto built = TransitionMatrix::Build(*graph, {.p = p});
    ASSERT_TRUE(built.ok());
    auto reference = SolvePagerank(*graph, *built, teleport, options);
    ASSERT_TRUE(reference.ok());

    for (const size_t num_shards : {2u, 4u}) {
      SCOPED_TRACE(testing::Message() << num_shards << " shards");
      auto partition =
          GraphPartition::Build(*graph, {.num_shards = num_shards});
      ASSERT_TRUE(partition.ok());
      // The mapped matrix itself, shared as the block solve's slices
      // (no β blend, so no arc weights).
      const TransitionSlices slices{.transition = *mapped,
                                    .arc_weights = {}};
      auto block =
          SolvePagerankPartitioned(slices, *partition, teleport, options);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      ASSERT_EQ(block->scores.size(), reference->scores.size());
      EXPECT_EQ(std::memcmp(block->scores.data(), reference->scores.data(),
                            reference->scores.size() * sizeof(double)),
                0);
      EXPECT_EQ(block->iterations, reference->iterations);
      EXPECT_EQ(std::memcmp(&block->residual, &reference->residual,
                            sizeof(double)),
                0);
    }
  }
  EXPECT_EQ(restarted.builds(), 0) << "restart must never rebuild";
  EXPECT_EQ(restarted.store_loads(), 3);  // one per key
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
