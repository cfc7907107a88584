// Shard-cut file correctness: a saved cut must load back as exactly the
// PartitionShard the partitioner would build (field for field, across
// both schemes and shard counts), the slice built from a cut must be
// bitwise the slice the whole-graph path builds, and every way a cut
// file can lie — bad magic, future version, truncation at any section
// boundary, bit flips in any section, structurally wrong payloads that
// checksum cleanly — must be rejected with a clear error, never trusted
// into a wrong solve.

#include "graph/shard_cut.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/transition.h"
#include "core/transition_slices.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_fingerprint.h"
#include "graph/partition.h"
#include "transition_test_util.h"

namespace d2pr {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/d2pr_cut_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Directed graph with dangling nodes and uneven degrees, so every
/// section of the cut (dangling list included) is non-trivial.
CsrGraph DirectedGraphWithDangling(NodeId nodes, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(nodes, GraphKind::kDirected, /*weighted=*/false);
  for (NodeId v = 0; v < nodes; ++v) {
    if (v % 7 == 3) continue;  // dangling
    const int degree = 1 + static_cast<int>(rng.Next() % 5);
    for (int d = 0; d < degree; ++d) {
      const NodeId t = static_cast<NodeId>(rng.Next() % nodes);
      if (t != v) EXPECT_TRUE(builder.AddEdge(v, t).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

CsrGraph WeightedDirectedGraph(NodeId nodes, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(nodes, GraphKind::kDirected, /*weighted=*/true);
  for (NodeId v = 0; v < nodes; ++v) {
    if (v % 9 == 5) continue;  // dangling
    const int degree = 1 + static_cast<int>(rng.Next() % 4);
    for (int d = 0; d < degree; ++d) {
      const NodeId t = static_cast<NodeId>(rng.Next() % nodes);
      const double w = 0.25 + static_cast<double>(rng.Next() % 100) / 16.0;
      if (t != v) EXPECT_TRUE(builder.AddEdge(v, t, w).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

GraphPartition BuildPartition(const CsrGraph& graph, PartitionScheme scheme,
                              size_t shards) {
  auto partition = GraphPartition::Build(
      graph, {.scheme = scheme, .num_shards = shards, .build_out_csr = true});
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  return std::move(partition).value();
}

std::string SaveCut(const CsrGraph& graph, const GraphPartition& partition,
                    size_t shard_id, const std::string& dir) {
  const std::string path =
      dir + "/" + ShardCutFileName(GraphFingerprint(graph),
                                   partition.scheme(),
                                   partition.num_shards(), shard_id);
  const Status saved = SaveShardCut(graph, partition, shard_id, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return path;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> chars{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  return {chars.begin(), chars.end()};
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

constexpr size_t kHeaderBytes = 200;
constexpr size_t kNumSections = 11;

/// Section byte sizes recomputed from the header's count fields — the
/// same arithmetic the loader uses, so truncation/flip tests can aim at
/// exact section boundaries without hardcoding offsets.
std::vector<size_t> SectionSizes(const std::vector<uint8_t>& bytes) {
  uint64_t counts[6];
  for (size_t i = 0; i < 6; ++i) counts[i] = ReadU64(bytes.data() + 56 + 8 * i);
  const uint64_t owned = counts[0], out_arcs = counts[1], in_arcs = counts[2],
                 dangling = counts[3], boundary = counts[4],
                 ghost_arcs = counts[5];
  const bool weighted = (ReadU32(bytes.data() + 52) & 2) != 0;
  return {static_cast<size_t>((owned + 1) * 8),
          static_cast<size_t>(out_arcs * 4),
          static_cast<size_t>(owned * 8),
          static_cast<size_t>((owned + 1) * 8),
          static_cast<size_t>(in_arcs * 4),
          static_cast<size_t>(in_arcs * 8),
          static_cast<size_t>(dangling * 4),
          static_cast<size_t>(boundary * 4),
          static_cast<size_t>((boundary + 1) * 8),
          static_cast<size_t>(ghost_arcs * 4),
          weighted ? static_cast<size_t>((out_arcs + in_arcs + ghost_arcs) * 8)
                   : 0};
}

/// Recomputes every section checksum and the header checksum after a
/// test mutated payload bytes — the way to forge a file that checksums
/// cleanly but lies structurally.
void FixChecksums(std::vector<uint8_t>* bytes) {
  const std::vector<size_t> sizes = SectionSizes(*bytes);
  const bool weighted = (ReadU32(bytes->data() + 52) & 2) != 0;
  size_t offset = kHeaderBytes;
  for (size_t i = 0; i < kNumSections; ++i) {
    uint64_t checksum = Checksum64(bytes->data() + offset, sizes[i]);
    if (i == 10 && !weighted) checksum = 0;
    std::memcpy(bytes->data() + 104 + i * 8, &checksum, 8);
    offset += sizes[i];
  }
  const uint64_t header = Checksum64(bytes->data(), 192);
  std::memcpy(bytes->data() + 192, &header, 8);
}

void ExpectShardEqual(const PartitionShard& got, const PartitionShard& want) {
  EXPECT_EQ(got.owned, want.owned);
  EXPECT_EQ(got.out_offsets, want.out_offsets);
  EXPECT_EQ(got.out_targets, want.out_targets);
  EXPECT_EQ(got.out_arc_begin, want.out_arc_begin);
  EXPECT_EQ(got.in_offsets, want.in_offsets);
  EXPECT_EQ(got.in_sources, want.in_sources);
  EXPECT_EQ(got.in_arc_index, want.in_arc_index);
  EXPECT_EQ(got.in_interior, want.in_interior);
  EXPECT_EQ(got.boundary_out_arcs, want.boundary_out_arcs);
  EXPECT_EQ(got.boundary_in_arcs, want.boundary_in_arcs);
  EXPECT_EQ(got.dangling_owned, want.dangling_owned);
}

/// Field-for-field equality of two cuts.
void ExpectCutEqual(const ShardCut& got, const ShardCut& want) {
  EXPECT_EQ(got.meta.graph_fingerprint, want.meta.graph_fingerprint);
  EXPECT_EQ(got.meta.num_nodes, want.meta.num_nodes);
  EXPECT_EQ(got.meta.num_arcs, want.meta.num_arcs);
  EXPECT_EQ(got.meta.scheme, want.meta.scheme);
  EXPECT_EQ(got.meta.shard_id, want.meta.shard_id);
  EXPECT_EQ(got.meta.num_shards, want.meta.num_shards);
  EXPECT_EQ(got.meta.directed, want.meta.directed);
  EXPECT_EQ(got.meta.weighted, want.meta.weighted);
  ExpectShardEqual(got.shard, want.shard);
  EXPECT_EQ(got.boundary_sources, want.boundary_sources);
  EXPECT_EQ(got.ghost_offsets, want.ghost_offsets);
  EXPECT_EQ(got.ghost_targets, want.ghost_targets);
  EXPECT_EQ(got.out_weights, want.out_weights);
  EXPECT_EQ(got.in_weights, want.in_weights);
  EXPECT_EQ(got.ghost_weights, want.ghost_weights);
}

TEST(ShardCutTest, RoundTripMatchesPartitionerAcrossSchemesAndShardCounts) {
  const CsrGraph graph = DirectedGraphWithDangling(233, 71);
  const std::string dir = FreshDir("roundtrip");
  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (size_t shards : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                   std::to_string(shards));
      const GraphPartition partition = BuildPartition(graph, scheme, shards);
      for (size_t s = 0; s < shards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        const std::string path = SaveCut(graph, partition, s, dir);
        auto loaded = LoadShardCut(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        // The in-memory cut is exactly what the file round trip yields.
        auto in_memory = CutShard(graph, partition, s);
        ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
        ExpectCutEqual(*in_memory, *loaded);

        for (const ShardCut* cut : {&*loaded, &*in_memory}) {
          EXPECT_EQ(cut->meta.graph_fingerprint, GraphFingerprint(graph));
          EXPECT_EQ(cut->meta.num_nodes, graph.num_nodes());
          EXPECT_EQ(cut->meta.num_arcs, graph.num_arcs());
          EXPECT_EQ(cut->meta.scheme, scheme);
          EXPECT_EQ(cut->meta.shard_id, s);
          EXPECT_EQ(cut->meta.num_shards, shards);
          EXPECT_TRUE(cut->meta.directed);
          EXPECT_FALSE(cut->meta.weighted);
          ExpectShardEqual(cut->shard, partition.shard(s));

          // Boundary sources: the distinct non-interior in-CSR sources.
          const PartitionShard& want = partition.shard(s);
          std::vector<NodeId> boundary;
          for (size_t idx = 0; idx < want.in_sources.size(); ++idx) {
            if (!want.in_interior[idx]) {
              boundary.push_back(want.in_sources[idx]);
            }
          }
          std::sort(boundary.begin(), boundary.end());
          boundary.erase(std::unique(boundary.begin(), boundary.end()),
                         boundary.end());
          EXPECT_EQ(cut->boundary_sources, boundary);

          // Ghost rows: each boundary source's full out-row, verbatim.
          ASSERT_EQ(cut->ghost_offsets.size(), boundary.size() + 1);
          for (size_t b = 0; b < boundary.size(); ++b) {
            const auto row = graph.OutNeighbors(boundary[b]);
            const auto begin = static_cast<size_t>(cut->ghost_offsets[b]);
            const auto end = static_cast<size_t>(cut->ghost_offsets[b + 1]);
            ASSERT_EQ(end - begin, row.size());
            EXPECT_TRUE(std::equal(row.begin(), row.end(),
                                   cut->ghost_targets.begin() + begin));
          }
          EXPECT_TRUE(cut->out_weights.empty());
          EXPECT_TRUE(cut->in_weights.empty());
          EXPECT_TRUE(cut->ghost_weights.empty());
        }
      }
    }
  }
}

TEST(ShardCutTest, WeightedRoundTripCarriesAllThreeWeightFamilies) {
  const CsrGraph graph = WeightedDirectedGraph(120, 72);
  const std::string dir = FreshDir("weighted");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kRange, 4);
  for (size_t s = 0; s < 4; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const std::string path = SaveCut(graph, partition, s, dir);
    auto cut = LoadShardCut(path);
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    EXPECT_TRUE(cut->meta.weighted);
    ExpectShardEqual(cut->shard, partition.shard(s));

    // Out weights: the owned rows' weights, concatenated.
    const PartitionShard& shard = partition.shard(s);
    std::vector<double> out_weights;
    for (NodeId v : shard.owned) {
      const auto row = graph.OutWeights(v);
      out_weights.insert(out_weights.end(), row.begin(), row.end());
    }
    EXPECT_EQ(cut->out_weights, out_weights);

    // In weights: gathered through the global arc index.
    const auto weights = graph.weights();
    ASSERT_EQ(cut->in_weights.size(), shard.in_arc_index.size());
    for (size_t idx = 0; idx < shard.in_arc_index.size(); ++idx) {
      EXPECT_EQ(cut->in_weights[idx],
                weights[static_cast<size_t>(shard.in_arc_index[idx])]);
    }

    // Ghost weights: each boundary source's row weights, verbatim.
    for (size_t b = 0; b < cut->boundary_sources.size(); ++b) {
      const auto row = graph.OutWeights(cut->boundary_sources[b]);
      const auto begin = static_cast<size_t>(cut->ghost_offsets[b]);
      ASSERT_LE(begin + row.size(), cut->ghost_weights.size());
      EXPECT_TRUE(std::equal(row.begin(), row.end(),
                             cut->ghost_weights.begin() + begin));
    }
  }
}

TEST(ShardCutTest, MetadataPeekMatchesFullLoad) {
  const CsrGraph graph = DirectedGraphWithDangling(90, 73);
  const std::string dir = FreshDir("peek");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kHash, 2);
  const std::string path = SaveCut(graph, partition, 1, dir);
  auto meta = ReadShardCutMetadata(path);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  auto cut = LoadShardCut(path);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(meta->graph_fingerprint, cut->meta.graph_fingerprint);
  EXPECT_EQ(meta->num_nodes, cut->meta.num_nodes);
  EXPECT_EQ(meta->num_arcs, cut->meta.num_arcs);
  EXPECT_EQ(meta->scheme, cut->meta.scheme);
  EXPECT_EQ(meta->shard_id, 1u);
  EXPECT_EQ(meta->num_shards, 2u);
  EXPECT_EQ(meta->directed, cut->meta.directed);
  EXPECT_EQ(meta->weighted, cut->meta.weighted);
}

TEST(ShardCutTest, SliceFromCutIsBitwiseTheWholeGraphSlice) {
  struct Case {
    const char* name;
    CsrGraph graph;
    TransitionConfig config;
  };
  Case cases[] = {
      {"unweighted", DirectedGraphWithDangling(150, 74), {.p = 0.5}},
      {"weighted-blend", WeightedDirectedGraph(130, 75),
       {.p = 0.75, .beta = 0.25}},
      {"negative-p", DirectedGraphWithDangling(110, 76), {.p = -1.25}},
  };
  const std::string dir = FreshDir("sliceparity");
  for (Case& c : cases) {
    for (PartitionScheme scheme :
         {PartitionScheme::kRange, PartitionScheme::kHash}) {
      SCOPED_TRACE(std::string(c.name) + " " + PartitionSchemeName(scheme));
      const size_t shards = 4;
      const GraphPartition partition =
          BuildPartition(c.graph, scheme, shards);
      // The reference is the whole-graph matrix, read at the shard's
      // owned nodes (destination side) and [owned | boundary] slots
      // (source side).
      auto matrix = TransitionMatrix::Build(c.graph, c.config);
      ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
      const TransitionFactors& whole = matrix->factors();
      const std::vector<double> metric = MetricValues(
          c.graph, ResolveMetric(c.graph, c.config.metric));
      for (size_t s = 0; s < shards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        const std::string path = SaveCut(c.graph, partition, s, dir);
        auto cut = LoadShardCut(path);
        ASSERT_TRUE(cut.ok()) << cut.status().ToString();
        auto factors = BuildShardSliceFromCut(*cut, metric, c.config);
        ASSERT_TRUE(factors.ok()) << factors.status().ToString();
        std::vector<NodeId> slots = cut->shard.owned;
        slots.insert(slots.end(), cut->boundary_sources.begin(),
                     cut->boundary_sources.end());
        TransitionFactors want;
        for (NodeId v : cut->shard.owned) {
          want.u.push_back(whole.u[static_cast<size_t>(v)]);
          if (whole.has_sink()) {
            want.sink.push_back(whole.sink[static_cast<size_t>(v)]);
          }
        }
        for (NodeId v : slots) {
          const size_t i = static_cast<size_t>(v);
          want.c.push_back(whole.c[i]);
          if (whole.has_sink()) want.sink_c.push_back(whole.sink_c[i]);
          if (whole.has_blend()) want.blend_c.push_back(whole.blend_c[i]);
        }
        ExpectSameFactors(*factors, want);
      }
    }
  }
}

TEST(ShardCutTest, SliceFromCutRejectsWrongSizedMetricVector) {
  const CsrGraph graph = DirectedGraphWithDangling(80, 77);
  const std::string dir = FreshDir("badmetric");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kRange, 2);
  const std::string path = SaveCut(graph, partition, 0, dir);
  auto cut = LoadShardCut(path);
  ASSERT_TRUE(cut.ok());
  const std::vector<double> short_metric(
      static_cast<size_t>(graph.num_nodes()) - 1, 1.0);
  auto slice = BuildShardSliceFromCut(*cut, short_metric, {.p = 0.5});
  ASSERT_FALSE(slice.ok());
  EXPECT_EQ(slice.status().code(), StatusCode::kInvalidArgument);

  // Right-sized, but holding a value no degree or strength can take. At
  // p = 0 a +inf would fold into NaN probabilities; NaN and negatives
  // would read as metric 0.
  for (double bad : {std::nan(""), -1.0, HUGE_VAL}) {
    SCOPED_TRACE("bad metric " + std::to_string(bad));
    std::vector<double> metric =
        MetricValues(graph, ResolveMetric(graph, DegreeMetric::kAuto));
    metric[5] = bad;
    for (double p : {0.0, 0.5}) {
      auto rejected = BuildShardSliceFromCut(*cut, metric, {.p = p});
      ASSERT_FALSE(rejected.ok());
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ShardCutTest, SaveRejectsPartitionWithoutOutCsr)
{
  const CsrGraph graph = DirectedGraphWithDangling(60, 78);
  auto partition = GraphPartition::Build(
      graph,
      {.scheme = PartitionScheme::kRange, .num_shards = 2,
       .build_out_csr = false});
  ASSERT_TRUE(partition.ok());
  const std::string dir = FreshDir("nooutcsr");
  const Status saved = SaveShardCut(graph, *partition, 0, dir + "/x.d2psc");
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(saved.message().find("out-CSR"), std::string::npos);
}

TEST(ShardCutTest, BadMagicIsRejected) {
  const CsrGraph graph = DirectedGraphWithDangling(70, 79);
  const std::string dir = FreshDir("magic");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kRange, 2);
  const std::string path = SaveCut(graph, partition, 0, dir);
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[3] ^= 0xff;
  WriteFileBytes(path, bytes);
  for (const auto& result :
       {LoadShardCut(path).status(), ReadShardCutMetadata(path).status()}) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code(), StatusCode::kIoError);
    EXPECT_NE(result.message().find("magic"), std::string::npos);
  }
}

TEST(ShardCutTest, FutureFormatVersionIsRejected) {
  const CsrGraph graph = DirectedGraphWithDangling(70, 80);
  const std::string dir = FreshDir("version");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kRange, 2);
  const std::string path = SaveCut(graph, partition, 0, dir);
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  const uint32_t future = 2;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  // The version gate must fire before the header checksum so old builds
  // report "version too new", not "corrupt" — keep the checksum valid.
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  const Status loaded = LoadShardCut(path).status();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.message().find("version"), std::string::npos);
}

TEST(ShardCutTest, HeaderBitFlipIsRejectedByHeaderChecksum) {
  const CsrGraph graph = DirectedGraphWithDangling(70, 81);
  const std::string dir = FreshDir("headerflip");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kHash, 2);
  const std::string path = SaveCut(graph, partition, 1, dir);
  const std::vector<uint8_t> pristine = ReadFileBytes(path);
  // Every interesting header field: fingerprint, node count, scheme,
  // shard id, shard count, a section count.
  for (const size_t offset : {16u, 24u, 40u, 44u, 48u, 56u}) {
    SCOPED_TRACE("flip at byte " + std::to_string(offset));
    std::vector<uint8_t> bytes = pristine;
    bytes[offset] ^= 0x01;
    WriteFileBytes(path, bytes);
    const Status loaded = LoadShardCut(path).status();
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), StatusCode::kIoError);
    EXPECT_NE(loaded.message().find("checksum"), std::string::npos);
  }
}

TEST(ShardCutTest, TruncationAtEverySectionBoundaryIsRejected) {
  const CsrGraph graph = WeightedDirectedGraph(90, 82);
  const std::string dir = FreshDir("truncate");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kRange, 3);
  const std::string path = SaveCut(graph, partition, 1, dir);
  const std::vector<uint8_t> pristine = ReadFileBytes(path);
  const std::vector<size_t> sizes = SectionSizes(pristine);

  std::vector<size_t> cut_points = {0, 1, kHeaderBytes - 1, kHeaderBytes};
  size_t offset = kHeaderBytes;
  for (size_t size : sizes) {
    offset += size;
    cut_points.push_back(offset);      // exactly at each section boundary
    if (size > 0) cut_points.push_back(offset - 1);  // one byte short
  }

  for (const size_t keep : cut_points) {
    if (keep >= pristine.size()) continue;  // the full file is valid
    SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
    std::vector<uint8_t> bytes = pristine;
    bytes.resize(keep);
    WriteFileBytes(path, bytes);
    const Status loaded = LoadShardCut(path).status();
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), StatusCode::kIoError);
  }

  // And one byte too many is just as dead: the size check is exact.
  std::vector<uint8_t> bytes = pristine;
  bytes.push_back(0);
  WriteFileBytes(path, bytes);
  const Status loaded = LoadShardCut(path).status();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kIoError);
  EXPECT_NE(loaded.message().find("oversized"), std::string::npos);
}

TEST(ShardCutTest, PayloadBitFlipInEverySectionIsRejected) {
  const CsrGraph graph = WeightedDirectedGraph(90, 83);
  const std::string dir = FreshDir("bitflip");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kRange, 3);
  const std::string path = SaveCut(graph, partition, 0, dir);
  const std::vector<uint8_t> pristine = ReadFileBytes(path);
  const std::vector<size_t> sizes = SectionSizes(pristine);

  size_t offset = kHeaderBytes;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0) {
      continue;  // an empty section has no byte to flip
    }
    SCOPED_TRACE("flip in section " + std::to_string(i));
    std::vector<uint8_t> bytes = pristine;
    bytes[offset + sizes[i] / 2] ^= 0x20;
    WriteFileBytes(path, bytes);
    const Status loaded = LoadShardCut(path).status();
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), StatusCode::kIoError);
    EXPECT_NE(loaded.message().find("checksum"), std::string::npos)
        << loaded.ToString();
    offset += sizes[i];
  }
}

// A file whose checksums are VALID but whose payload lies about the
// shard's structure must still be rejected — checksums catch rot, the
// structural pass catches forgery and writer bugs.
TEST(ShardCutTest, StructurallyLyingPayloadsAreRejectedDespiteValidChecksums) {
  const CsrGraph graph = DirectedGraphWithDangling(90, 84);
  const std::string dir = FreshDir("lies");
  const GraphPartition partition =
      BuildPartition(graph, PartitionScheme::kRange, 3);
  const std::string path = SaveCut(graph, partition, 1, dir);
  const std::vector<uint8_t> pristine = ReadFileBytes(path);
  const std::vector<size_t> sizes = SectionSizes(pristine);
  std::vector<size_t> starts(sizes.size());
  size_t offset = kHeaderBytes;
  for (size_t i = 0; i < sizes.size(); ++i) {
    starts[i] = offset;
    offset += sizes[i];
  }

  struct Lie {
    const char* name;
    size_t section;
    const char* expect;  // substring of the rejection message
  };
  const Lie lies[] = {
      {"out-target out of range", 1, "ascending in-range"},
      {"in-source out of range", 4, "ascending in-range"},
      {"in-arc index out of range", 5, "out of range"},
      {"boundary list disagrees", 7, "disagrees"},
      {"ghost row not ascending", 9, "ghost row"},
  };
  for (const Lie& lie : lies) {
    SCOPED_TRACE(lie.name);
    ASSERT_GT(sizes[lie.section], 0u);
    std::vector<uint8_t> bytes = pristine;
    // Overwrite the section's first element with an implausibly large
    // value (still within the type's width), then make the checksums
    // agree with the lie.
    std::memset(bytes.data() + starts[lie.section], 0x7f,
                lie.section == 5 ? 8 : 4);
    FixChecksums(&bytes);
    WriteFileBytes(path, bytes);
    const Status loaded = LoadShardCut(path).status();
    ASSERT_FALSE(loaded.ok()) << lie.name;
    EXPECT_EQ(loaded.code(), StatusCode::kIoError);
    EXPECT_NE(loaded.message().find(lie.expect), std::string::npos)
        << loaded.ToString();
  }

  // A dangling list naming a non-empty row (first dangling entry swapped
  // for an owned node with arcs) — checksums fixed, still rejected.
  {
    ASSERT_GT(sizes[6], 0u);
    std::vector<uint8_t> bytes = pristine;
    const PartitionShard& shard = partition.shard(1);
    NodeId with_arcs = -1;
    for (size_t k = 0; k < shard.owned.size(); ++k) {
      if (shard.out_offsets[k + 1] > shard.out_offsets[k]) {
        with_arcs = shard.owned[k];
        break;
      }
    }
    ASSERT_GE(with_arcs, 0);
    std::memcpy(bytes.data() + starts[6], &with_arcs, 4);
    FixChecksums(&bytes);
    WriteFileBytes(path, bytes);
    const Status loaded = LoadShardCut(path).status();
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), StatusCode::kIoError);
    EXPECT_NE(loaded.message().find("dangling"), std::string::npos)
        << loaded.ToString();
  }
}

TEST(ShardCutTest, MissingFileIsIoError) {
  const Status loaded =
      LoadShardCut(testing::TempDir() + "/no_such_cut.d2psc").status();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kIoError);
}

TEST(ShardCutTest, FileNameIsCanonical) {
  EXPECT_EQ(ShardCutFileName(0xabcdef0123456789ull, PartitionScheme::kRange,
                             4, 2),
            "cut-abcdef0123456789-range-s2of4.d2psc");
  EXPECT_EQ(ShardCutFileName(0x1, PartitionScheme::kHash, 2, 0),
            "cut-0000000000000001-hash-s0of2.d2psc");
}

}  // namespace
}  // namespace d2pr
