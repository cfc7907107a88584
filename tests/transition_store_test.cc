// TransitionStore correctness: byte-exact round-trips for every metric,
// rejection of every way a store file can lie (wrong graph, wrong key,
// wrong version, truncation, bit flips), and single-flight loading under
// concurrency. The store is the restart path of the serving engine, so a
// bad file must never be used silently — only rejected with a clear
// error and rebuilt.

#include "api/transition_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_fingerprint.h"
#include "transition_test_util.h"

namespace d2pr {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/d2pr_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CsrGraph WeightedDirectedGraph() {
  GraphBuilder builder(5, GraphKind::kDirected, /*weighted=*/true);
  EXPECT_TRUE(builder.AddEdge(0, 1, 2.0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 3.0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 5.0).ok());
  EXPECT_TRUE(builder.AddEdge(3, 0, 0.5).ok());
  auto graph = builder.Build();  // node 4 stays dangling
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::shared_ptr<const TransitionMatrix> BuildMatrix(const CsrGraph& graph,
                                                    const TransitionKey& key) {
  auto built = TransitionMatrix::Build(
      graph, {.p = key.p, .beta = key.beta, .metric = key.metric});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::make_shared<const TransitionMatrix>(std::move(built).value());
}

void ExpectByteExact(const TransitionMatrix& loaded,
                     const TransitionMatrix& built) {
  ExpectSameMatrix(loaded, built);
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

TEST(TransitionStoreTest, RoundTripIsByteExactForEveryMetric) {
  Rng rng(11);
  auto undirected = ErdosRenyi(60, 180, &rng);
  ASSERT_TRUE(undirected.ok());
  const CsrGraph weighted = WeightedDirectedGraph();

  struct Case {
    const CsrGraph* graph;
    TransitionKey key;
  };
  const Case cases[] = {
      {&*undirected, {0.5, 0.0, DegreeMetric::kOutDegree}},
      {&*undirected, {-1.25, 0.0, DegreeMetric::kOutDegree}},
      {&*undirected, {2.0, 0.0, DegreeMetric::kInDegree}},
      {&weighted, {0.75, 0.0, DegreeMetric::kOutStrength}},
      {&weighted, {0.75, 0.25, DegreeMetric::kOutStrength}},
      {&weighted, {0.0, 1.0, DegreeMetric::kOutDegree}},
  };

  TransitionStore store(FreshDir("roundtrip"));
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "p=" << c.key.p << " beta="
                                    << c.key.beta << " metric="
                                    << static_cast<int>(c.key.metric));
    const uint64_t fp = GraphFingerprint(*c.graph);
    auto built = BuildMatrix(*c.graph, c.key);
    ASSERT_TRUE(store.Save(fp, c.key, *built).ok());
    auto loaded = store.Load(fp, c.key, c.graph->num_nodes(),
                             c.graph->num_arcs());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectByteExact(**loaded, *built);
  }
}

TEST(TransitionStoreTest, LoadedMatrixOutlivesStoreFileReplacement) {
  Rng rng(12);
  auto graph = ErdosRenyi(40, 120, &rng);
  ASSERT_TRUE(graph.ok());
  const uint64_t fp = GraphFingerprint(*graph);
  const TransitionKey key{1.5, 0.0, DegreeMetric::kOutDegree};
  TransitionStore store(FreshDir("replace"));
  auto built = BuildMatrix(*graph, key);
  ASSERT_TRUE(store.Save(fp, key, *built).ok());

  auto loaded = store.Load(fp, key, graph->num_nodes(),
                           graph->num_arcs());
  ASSERT_TRUE(loaded.ok());
  // A writer replacing the file must not mutate the mapped matrix: Save
  // goes through rename, and the mapping is MAP_PRIVATE.
  ASSERT_TRUE(store.Save(fp, key, *built).ok());
  ExpectByteExact(**loaded, *built);
}

TEST(TransitionStoreTest, MissingFileIsNotFound) {
  Rng rng(13);
  auto graph = ErdosRenyi(30, 90, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionStore store(FreshDir("missing"));
  auto loaded = store.Load(GraphFingerprint(*graph),
                           {0.5, 0.0, DegreeMetric::kOutDegree},
                           graph->num_nodes(), graph->num_arcs());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// A file saved for one graph, renamed to another graph's slot, must be
// rejected by the header fingerprint — the filename alone is never
// trusted.
TEST(TransitionStoreTest, GraphFingerprintMismatchIsRejected) {
  Rng rng(14);
  auto graph = ErdosRenyi(50, 150, &rng);
  ASSERT_TRUE(graph.ok());
  const uint64_t fp = GraphFingerprint(*graph);
  const uint64_t other_fp = fp ^ 0x1;
  const TransitionKey key{0.5, 0.0, DegreeMetric::kOutDegree};
  TransitionStore store(FreshDir("fingerprint"));
  ASSERT_TRUE(store.Save(fp, key, *BuildMatrix(*graph, key)).ok());

  std::filesystem::rename(store.PathFor(fp, key),
                          store.PathFor(other_fp, key));
  auto loaded = store.Load(other_fp, key, graph->num_nodes(),
                           graph->num_arcs());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos)
      << loaded.status().ToString();
}

// Same defense for the key: a file renamed to another (p, beta, metric)
// slot is caught by the bit-exact key comparison in the header.
TEST(TransitionStoreTest, KeyMismatchAfterRenameIsRejected) {
  Rng rng(15);
  auto graph = ErdosRenyi(50, 150, &rng);
  ASSERT_TRUE(graph.ok());
  const uint64_t fp = GraphFingerprint(*graph);
  const TransitionKey key_a{0.5, 0.0, DegreeMetric::kOutDegree};
  const TransitionKey key_b{0.25, 0.0, DegreeMetric::kOutDegree};
  TransitionStore store(FreshDir("keyswap"));
  ASSERT_TRUE(store.Save(fp, key_a, *BuildMatrix(*graph, key_a)).ok());

  std::filesystem::rename(store.PathFor(fp, key_a), store.PathFor(fp, key_b));
  auto loaded = store.Load(fp, key_b, graph->num_nodes(),
                           graph->num_arcs());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("key"), std::string::npos);
}

TEST(TransitionStoreTest, BadMagicIsRejected) {
  Rng rng(16);
  auto graph = ErdosRenyi(40, 120, &rng);
  ASSERT_TRUE(graph.ok());
  const uint64_t fp = GraphFingerprint(*graph);
  const TransitionKey key{0.5, 0.0, DegreeMetric::kOutDegree};
  TransitionStore store(FreshDir("magic"));
  ASSERT_TRUE(store.Save(fp, key, *BuildMatrix(*graph, key)).ok());

  const std::string path = store.PathFor(fp, key);
  std::vector<char> bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto loaded = store.Load(fp, key, graph->num_nodes(),
                           graph->num_arcs());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST(TransitionStoreTest, FutureFormatVersionIsRejected) {
  Rng rng(17);
  auto graph = ErdosRenyi(40, 120, &rng);
  ASSERT_TRUE(graph.ok());
  const uint64_t fp = GraphFingerprint(*graph);
  const TransitionKey key{0.5, 0.0, DegreeMetric::kOutDegree};
  TransitionStore store(FreshDir("version"));
  ASSERT_TRUE(store.Save(fp, key, *BuildMatrix(*graph, key)).ok());

  const std::string path = store.PathFor(fp, key);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t future = TransitionStore::kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  WriteFileBytes(path, bytes);
  auto loaded = store.Load(fp, key, graph->num_nodes(),
                           graph->num_arcs());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(TransitionStoreTest, TruncatedFileIsRejected) {
  Rng rng(18);
  auto graph = ErdosRenyi(40, 120, &rng);
  ASSERT_TRUE(graph.ok());
  const uint64_t fp = GraphFingerprint(*graph);
  const TransitionKey key{0.5, 0.0, DegreeMetric::kOutDegree};
  TransitionStore store(FreshDir("truncate"));
  ASSERT_TRUE(store.Save(fp, key, *BuildMatrix(*graph, key)).ok());

  const std::string path = store.PathFor(fp, key);
  const auto full_size = std::filesystem::file_size(path);
  // Every truncation point must fail cleanly: mid-payload, exactly at the
  // header boundary, and inside the header.
  for (const uintmax_t keep :
       {full_size - 1, full_size - 17, uintmax_t{96}, uintmax_t{40}}) {
    SCOPED_TRACE(testing::Message() << "truncated to " << keep << " bytes");
    std::vector<char> bytes = ReadFileBytes(path);
    bytes.resize(static_cast<size_t>(keep));
    WriteFileBytes(path, bytes);
    auto loaded = store.Load(fp, key, graph->num_nodes(),
                           graph->num_arcs());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    // Restore for the next truncation point.
    ASSERT_TRUE(store.Save(fp, key, *BuildMatrix(*graph, key)).ok());
  }
}

TEST(TransitionStoreTest, PayloadBitFlipIsRejectedByChecksum) {
  Rng rng(19);
  auto graph = ErdosRenyi(40, 120, &rng);
  ASSERT_TRUE(graph.ok());
  const uint64_t fp = GraphFingerprint(*graph);
  const TransitionKey key{0.5, 0.0, DegreeMetric::kOutDegree};
  TransitionStore store(FreshDir("bitflip"));
  ASSERT_TRUE(store.Save(fp, key, *BuildMatrix(*graph, key)).ok());

  const std::string path = store.PathFor(fp, key);
  const std::vector<char> pristine = ReadFileBytes(path);
  // One flip in the probs section, one in the dangling section.
  const size_t probs_offset = 96 + 8;
  const size_t dangling_offset = pristine.size() - 1;
  for (const size_t offset : {probs_offset, dangling_offset}) {
    SCOPED_TRACE(testing::Message() << "bit flip at byte " << offset);
    std::vector<char> bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    WriteFileBytes(path, bytes);
    auto loaded = store.Load(fp, key, graph->num_nodes(),
                           graph->num_arcs());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  }
}

TEST(TransitionStoreTest, HeaderBitFlipIsRejectedByHeaderChecksum) {
  Rng rng(20);
  auto graph = ErdosRenyi(40, 120, &rng);
  ASSERT_TRUE(graph.ok());
  const uint64_t fp = GraphFingerprint(*graph);
  const TransitionKey key{0.5, 0.0, DegreeMetric::kOutDegree};
  TransitionStore store(FreshDir("headerflip"));
  ASSERT_TRUE(store.Save(fp, key, *BuildMatrix(*graph, key)).ok());

  const std::string path = store.PathFor(fp, key);
  std::vector<char> bytes = ReadFileBytes(path);
  bytes[24] = static_cast<char>(bytes[24] ^ 0x01);  // num_nodes field
  WriteFileBytes(path, bytes);
  auto loaded = store.Load(fp, key, graph->num_nodes(),
                           graph->num_arcs());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

// Concurrent cold misses on one key must single-flight through the store
// exactly like they single-flight through a build: one mmap, everyone
// else takes the cache hit.
TEST(TransitionStoreTest, ConcurrentEngineLoadsAreSingleFlighted) {
  Rng rng(22);
  auto graph = BarabasiAlbert(200, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("singleflight");

  RankRequest request;
  request.p = 0.5;
  {
    EngineOptions options;
    options.cache_dir = dir;
    D2prEngine warmer = D2prEngine::Borrowing(*graph, options);
    ASSERT_TRUE(warmer.Rank(request).ok());
  }

  EngineOptions options;
  options.cache_dir = dir;
  D2prEngine engine = D2prEngine::Borrowing(*graph, options);
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      auto response = engine.Rank(request);
      EXPECT_TRUE(response.ok());
    });
  }
  for (std::thread& t : threads) t.join();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.transition_builds, 0);
  EXPECT_EQ(stats.transition_store_loads, 1);
  EXPECT_EQ(stats.transition_store_loads + stats.transition_cache_hits,
            kThreads);
}

// With the in-memory cache disabled there is no single-flight, but the
// store still replaces every rebuild with a load.
TEST(TransitionStoreTest, ZeroCapacityCacheStillLoadsFromStore) {
  Rng rng(23);
  auto graph = ErdosRenyi(60, 180, &rng);
  ASSERT_TRUE(graph.ok());
  const std::string dir = FreshDir("zerocap");

  RankRequest request;
  request.p = 0.5;
  {
    EngineOptions options;
    options.cache_dir = dir;
    D2prEngine warmer = D2prEngine::Borrowing(*graph, options);
    ASSERT_TRUE(warmer.Rank(request).ok());
  }

  EngineOptions options;
  options.cache_dir = dir;
  options.transition_cache_capacity = 0;
  D2prEngine engine = D2prEngine::Borrowing(*graph, options);
  ASSERT_TRUE(engine.Rank(request).ok());
  ASSERT_TRUE(engine.Rank(request).ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.transition_builds, 0);
  EXPECT_EQ(stats.transition_store_loads, 2);
}

}  // namespace
}  // namespace d2pr
