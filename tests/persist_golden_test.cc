// Golden-file pins of the transition store's on-disk format.
//
// tests/testdata/golden_transition_v2.d2ptm is a version-2 store file (the
// O(|V|) factors) for a small, fully deterministic weighted graph,
// committed to the repo. Today's reader must keep loading it
// byte-exactly, and today's writer must reproduce its bytes: if either
// test fails, the format changed in a way that breaks every store already
// on disk — bump TransitionStore::kFormatVersion (and decide the
// migration story) instead of silently invalidating old stores.
//
// tests/testdata/golden_transition_v1.d2ptm is the retired version-1
// layout (one probability per arc). It must be refused with the
// format-version FailedPrecondition, which the serving resolver answers
// with a rebuild and a write-through of the new format.
//
// Regenerate the v2 fixture (only when *introducing* a new format
// version, alongside a new golden file — never to paper over a red run):
//   D2PR_REGENERATE_GOLDEN=1 ./d2pr_tests --gtest_filter='PersistGolden*'

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/transition_store.h"
#include "graph/graph_builder.h"
#include "graph/graph_fingerprint.h"
#include "transition_test_util.h"

namespace d2pr {
namespace {

#ifndef D2PR_TEST_DATA_DIR
#error "tests/CMakeLists.txt must define D2PR_TEST_DATA_DIR"
#endif

constexpr char kVersionOneFixture[] = "/golden_transition_v1.d2ptm";
constexpr char kVersionTwoFixture[] = "/golden_transition_v2.d2ptm";

// The fixture graph, rebuilt from literals so the golden bytes depend on
// nothing but the format and the transition math.
CsrGraph GoldenGraph() {
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

constexpr TransitionKey kGoldenKey{0.75, 0.25, DegreeMetric::kOutStrength};

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Stages a committed fixture into a fresh store directory under the
/// name FileNameFor computes today — which also pins the name scheme: if
/// the scheme changes, existing stores stop resolving and the tests fail.
TransitionStore StageFixture(const std::string& fixture, const char* name,
                             uint64_t fingerprint) {
  const std::string store_dir =
      testing::TempDir() + "/d2pr_golden_store_" + name;
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);
  TransitionStore store(store_dir);
  std::filesystem::copy_file(std::string(D2PR_TEST_DATA_DIR) + fixture,
                             store.PathFor(fingerprint, kGoldenKey));
  return store;
}

TransitionMatrix BuildGolden(const CsrGraph& graph) {
  auto built = TransitionMatrix::Build(graph, {.p = kGoldenKey.p,
                                               .beta = kGoldenKey.beta,
                                               .metric = kGoldenKey.metric});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(PersistGoldenTest, VersionTwoFixtureLoadsByteExactly) {
  const CsrGraph graph = GoldenGraph();
  const uint64_t fingerprint = GraphFingerprint(graph);
  const std::string fixture_path =
      std::string(D2PR_TEST_DATA_DIR) + kVersionTwoFixture;

  if (std::getenv("D2PR_REGENERATE_GOLDEN") != nullptr) {
    TransitionStore writer(D2PR_TEST_DATA_DIR);
    ASSERT_TRUE(writer.Save(fingerprint, kGoldenKey, BuildGolden(graph)).ok());
    std::filesystem::rename(writer.PathFor(fingerprint, kGoldenKey),
                            fixture_path);
    GTEST_SKIP() << "regenerated " << fixture_path;
  }

  ASSERT_TRUE(std::filesystem::exists(fixture_path))
      << fixture_path
      << " missing; see the regeneration note in this file";
  TransitionStore store =
      StageFixture(kVersionTwoFixture, "v2", fingerprint);
  auto loaded = store.Load(fingerprint, kGoldenKey, graph.num_nodes(),
                           graph.num_arcs());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString()
                           << "\nThe version-2 format no longer loads. Bump "
                              "TransitionStore::kFormatVersion instead of "
                              "changing the v2 layout.";
  const TransitionMatrix built = BuildGolden(graph);
  // The fixture graph has a dangling node (metric 0 at p > 0) and a
  // beta blend, so every optional section is pinned.
  ASSERT_TRUE(built.factors().has_sink());
  ASSERT_TRUE(built.factors().has_blend());
  ExpectSameMatrix(**loaded, built);

  // The writer's bytes are pinned too: saving today's build reproduces
  // the fixture exactly.
  const std::string rewrite_dir = testing::TempDir() + "/d2pr_golden_rewrite";
  std::filesystem::remove_all(rewrite_dir);
  TransitionStore rewriter(rewrite_dir);
  ASSERT_TRUE(rewriter.Save(fingerprint, kGoldenKey, built).ok());
  EXPECT_EQ(ReadBytes(rewriter.PathFor(fingerprint, kGoldenKey)),
            ReadBytes(fixture_path));
}

TEST(PersistGoldenTest, VersionOneFixtureIsRefused) {
  const CsrGraph graph = GoldenGraph();
  const uint64_t fingerprint = GraphFingerprint(graph);
  TransitionStore store =
      StageFixture(kVersionOneFixture, "v1", fingerprint);
  auto loaded = store.Load(fingerprint, kGoldenKey, graph.num_nodes(),
                           graph.num_arcs());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("format version 1"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(PersistGoldenTest, VersionOneFileIsReplacedByWriteThrough) {
  // A serving engine meeting a v1 file rebuilds, and its write-through
  // spill replaces the file with v2, which the next restart loads.
  const CsrGraph graph = GoldenGraph();
  const uint64_t fingerprint = GraphFingerprint(graph);
  TransitionStore store =
      StageFixture(kVersionOneFixture, "v1_heal", fingerprint);
  EngineOptions options;
  options.cache_dir = store.dir();
  RankRequest request;
  request.p = kGoldenKey.p;
  request.beta = kGoldenKey.beta;
  request.metric = kGoldenKey.metric;
  {
    D2prEngine engine = D2prEngine::Borrowing(graph, options);
    ASSERT_TRUE(engine.Rank(request).ok());
    EXPECT_EQ(engine.stats().transition_builds, 1);
    EXPECT_EQ(engine.stats().transition_store_saves, 1);
  }
  D2prEngine restarted = D2prEngine::Borrowing(graph, options);
  ASSERT_TRUE(restarted.Rank(request).ok());
  EXPECT_EQ(restarted.stats().transition_store_loads, 1);
  EXPECT_EQ(restarted.stats().transition_builds, 0);
}

}  // namespace
}  // namespace d2pr
