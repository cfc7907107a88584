#include "graph/shard_cut.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/binary_io.h"
#include "common/string_util.h"
#include "graph/graph_fingerprint.h"

namespace d2pr {

namespace {

// --- file layout (little-endian; binary_io.h static-asserts the target) ---
//
//   offset  size  field
//        0     8  magic "D2PRSCUT"
//        8     4  format version
//       12     4  header bytes (200)
//       16     8  graph fingerprint
//       24     8  num_nodes   (global, i64)
//       32     8  num_arcs    (global, i64)
//       40     4  partition scheme
//       44     4  shard id
//       48     4  shard count
//       52     4  flags (bit 0 directed, bit 1 weighted)
//       56   6*8  section counts: owned, out arcs, in arcs, dangling,
//                 boundary sources, ghost arcs
//      104  11*8  per-section Checksum64s (section order below)
//      192     8  Checksum64 over bytes [0, 192)
//
// Payload sections, in order, raw little-endian element dumps:
//    0 out_offsets      (owned+1)    x i64
//    1 out_targets      out_arcs     x i32
//    2 out_arc_begin    owned        x i64
//    3 in_offsets       (owned+1)    x i64
//    4 in_sources       in_arcs      x i32
//    5 in_arc_index     in_arcs      x i64
//    6 dangling_owned   dangling     x i32
//    7 boundary_sources boundary     x i32
//    8 ghost_offsets    (boundary+1) x i64
//    9 ghost_targets    ghost_arcs   x i32
//   10 weights          weighted ? (out_arcs + in_arcs + ghost_arcs) x f64
//                       : absent — out, in, ghost weight runs back to back
//                       under one chained checksum

constexpr uint8_t kMagic[8] = {'D', '2', 'P', 'R', 'S', 'C', 'U', 'T'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kHeaderBytes = 200;

constexpr size_t kVersionOffset = 8;
constexpr size_t kHeaderBytesOffset = 12;
constexpr size_t kFingerprintOffset = 16;
constexpr size_t kNumNodesOffset = 24;
constexpr size_t kNumArcsOffset = 32;
constexpr size_t kSchemeOffset = 40;
constexpr size_t kShardIdOffset = 44;
constexpr size_t kNumShardsOffset = 48;
constexpr size_t kFlagsOffset = 52;
constexpr size_t kNumOwnedOffset = 56;
constexpr size_t kSectionChecksumOffset = 104;
constexpr size_t kNumSections = 11;
constexpr size_t kHeaderChecksumOffset = 192;

constexpr uint32_t kFlagDirected = 1u << 0;
constexpr uint32_t kFlagWeighted = 1u << 1;

/// Section counts beyond num_arcs (itself capped here) make the expected
/// payload-size arithmetic meaningless; a header claiming more is corrupt,
/// not big.
constexpr int64_t kMaxPlausibleArcs = int64_t{1} << 40;

std::string Hex16(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IoError(StrCat(path, ": ", what));
}

/// The six section counts of the header, in file order.
struct SectionCounts {
  uint64_t owned = 0;
  uint64_t out_arcs = 0;
  uint64_t in_arcs = 0;
  uint64_t dangling = 0;
  uint64_t boundary = 0;
  uint64_t ghost_arcs = 0;
};

/// Byte size of payload section `index` under `counts` (see the layout
/// table above).
uint64_t SectionBytes(size_t index, const SectionCounts& counts,
                      bool weighted) {
  switch (index) {
    case 0:
      return (counts.owned + 1) * 8;
    case 1:
      return counts.out_arcs * 4;
    case 2:
      return counts.owned * 8;
    case 3:
      return (counts.owned + 1) * 8;
    case 4:
      return counts.in_arcs * 4;
    case 5:
      return counts.in_arcs * 8;
    case 6:
      return counts.dangling * 4;
    case 7:
      return counts.boundary * 4;
    case 8:
      return (counts.boundary + 1) * 8;
    case 9:
      return counts.ghost_arcs * 4;
    case 10:
      return weighted
                 ? (counts.out_arcs + counts.in_arcs + counts.ghost_arcs) * 8
                 : 0;
  }
  return 0;
}

/// Decodes and gate-checks the fixed header: magic, version, header
/// bytes, header checksum, enum ranges, count plausibility. Structural
/// payload validation happens in LoadShardCut.
struct ParsedHeader {
  ShardCutMetadata meta;
  SectionCounts counts;
  uint64_t section_checksums[kNumSections] = {};
};

Result<ParsedHeader> ParseHeader(const std::string& path,
                                 const uint8_t* bytes, size_t available) {
  if (available < kHeaderBytes ||
      std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "not a d2pr shard cut file (bad magic)");
  }
  const uint32_t version = ReadU32(bytes + kVersionOffset);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        StrCat(path, ": cut format version ", version,
               " unsupported (this build reads version ", kFormatVersion,
               ")"));
  }
  if (ReadU32(bytes + kHeaderBytesOffset) != kHeaderBytes) {
    return Corrupt(path, StrCat("header claims ",
                                ReadU32(bytes + kHeaderBytesOffset),
                                " header bytes, format has ", kHeaderBytes));
  }
  const uint64_t stored = ReadU64(bytes + kHeaderChecksumOffset);
  const uint64_t actual = Checksum64(bytes, kHeaderChecksumOffset);
  if (stored != actual) {
    return Corrupt(path, StrCat("header checksum mismatch (stored ",
                                Hex16(stored), ", computed ", Hex16(actual),
                                ")"));
  }

  ParsedHeader parsed;
  parsed.meta.graph_fingerprint = ReadU64(bytes + kFingerprintOffset);
  const int64_t num_nodes = ReadI64(bytes + kNumNodesOffset);
  const int64_t num_arcs = ReadI64(bytes + kNumArcsOffset);
  if (num_nodes < 0 || num_nodes > INT32_MAX) {
    return Corrupt(path, StrCat("implausible node count ", num_nodes));
  }
  if (num_arcs < 0 || num_arcs > kMaxPlausibleArcs) {
    return Corrupt(path, StrCat("implausible arc count ", num_arcs));
  }
  parsed.meta.num_nodes = static_cast<NodeId>(num_nodes);
  parsed.meta.num_arcs = num_arcs;

  const uint32_t scheme = ReadU32(bytes + kSchemeOffset);
  if (scheme > static_cast<uint32_t>(PartitionScheme::kHash)) {
    return Corrupt(path, StrCat("bad partition scheme ", scheme));
  }
  parsed.meta.scheme = static_cast<PartitionScheme>(scheme);
  parsed.meta.shard_id = ReadU32(bytes + kShardIdOffset);
  parsed.meta.num_shards = ReadU32(bytes + kNumShardsOffset);
  if (parsed.meta.num_shards == 0 ||
      parsed.meta.shard_id >= parsed.meta.num_shards) {
    return Corrupt(path, StrCat("shard id ", parsed.meta.shard_id,
                                " not below shard count ",
                                parsed.meta.num_shards));
  }
  const uint32_t flags = ReadU32(bytes + kFlagsOffset);
  if (flags > (kFlagDirected | kFlagWeighted)) {
    return Corrupt(path, StrCat("bad flags word ", flags));
  }
  parsed.meta.directed = (flags & kFlagDirected) != 0;
  parsed.meta.weighted = (flags & kFlagWeighted) != 0;

  uint64_t* count_fields[] = {&parsed.counts.owned,    &parsed.counts.out_arcs,
                              &parsed.counts.in_arcs,  &parsed.counts.dangling,
                              &parsed.counts.boundary,
                              &parsed.counts.ghost_arcs};
  for (size_t i = 0; i < 6; ++i) {
    *count_fields[i] = ReadU64(bytes + kNumOwnedOffset + i * 8);
  }
  const SectionCounts& c = parsed.counts;
  if (c.owned > static_cast<uint64_t>(num_nodes) ||
      c.boundary > static_cast<uint64_t>(num_nodes) ||
      c.dangling > c.owned ||
      c.out_arcs > static_cast<uint64_t>(num_arcs) ||
      c.in_arcs > static_cast<uint64_t>(num_arcs) ||
      c.ghost_arcs > static_cast<uint64_t>(num_arcs)) {
    return Corrupt(path, "implausible section counts");
  }
  for (size_t i = 0; i < kNumSections; ++i) {
    parsed.section_checksums[i] = ReadU64(bytes + kSectionChecksumOffset +
                                          i * 8);
  }
  return parsed;
}

/// Copies `count` raw little-endian elements out of the mmap.
template <typename T>
void CopySection(const uint8_t* p, uint64_t count, std::vector<T>* out) {
  out->resize(static_cast<size_t>(count));
  if (count > 0) std::memcpy(out->data(), p, static_cast<size_t>(count * sizeof(T)));
}

template <typename T>
int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.size() * sizeof(T));
}

}  // namespace

int64_t ShardCut::payload_bytes() const {
  return VectorBytes(shard.owned) + VectorBytes(shard.out_offsets) +
         VectorBytes(shard.out_targets) + VectorBytes(shard.out_arc_begin) +
         VectorBytes(shard.in_offsets) + VectorBytes(shard.in_sources) +
         VectorBytes(shard.in_arc_index) + VectorBytes(shard.in_interior) +
         VectorBytes(shard.dangling_owned) + VectorBytes(boundary_sources) +
         VectorBytes(ghost_offsets) + VectorBytes(ghost_targets) +
         VectorBytes(out_weights) + VectorBytes(in_weights) +
         VectorBytes(ghost_weights);
}

std::string ShardCutFileName(uint64_t graph_fingerprint,
                             PartitionScheme scheme, size_t num_shards,
                             size_t shard_id) {
  return StrCat("cut-", Hex16(graph_fingerprint), "-",
                PartitionSchemeName(scheme), "-s", shard_id, "of",
                num_shards, ".d2psc");
}

Result<ShardCut> CutShard(const CsrGraph& graph,
                          const GraphPartition& partition, size_t shard_id) {
  if (shard_id >= partition.num_shards()) {
    return Status::InvalidArgument(
        StrCat("shard id ", shard_id, " not below partition shard count ",
               partition.num_shards()));
  }
  if (partition.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("partition covers ", partition.num_nodes(),
               " nodes but the graph has ", graph.num_nodes()));
  }
  const PartitionShard& shard = partition.shard(shard_id);
  const bool weighted = graph.weighted();

  ShardCut cut;
  cut.meta.graph_fingerprint = GraphFingerprint(graph);
  cut.meta.num_nodes = graph.num_nodes();
  cut.meta.num_arcs = graph.num_arcs();
  cut.meta.scheme = partition.scheme();
  cut.meta.shard_id = static_cast<uint32_t>(shard_id);
  cut.meta.num_shards = static_cast<uint32_t>(partition.num_shards());
  cut.meta.directed = graph.directed();
  cut.meta.weighted = weighted;
  cut.shard = shard;
  cut.boundary_sources = BoundarySources(shard, graph.num_nodes());

  // Ghost rows: each boundary source's full out-row, in boundary order.
  cut.ghost_offsets.reserve(cut.boundary_sources.size() + 1);
  cut.ghost_offsets.push_back(0);
  for (NodeId b : cut.boundary_sources) {
    const auto row = graph.OutNeighbors(b);
    cut.ghost_targets.insert(cut.ghost_targets.end(), row.begin(), row.end());
    if (weighted) {
      const auto row_weights = graph.OutWeights(b);
      cut.ghost_weights.insert(cut.ghost_weights.end(), row_weights.begin(),
                               row_weights.end());
    }
    cut.ghost_offsets.push_back(
        static_cast<EdgeIndex>(cut.ghost_targets.size()));
  }

  // Per-arc weights of the shard's own arc families. in_weights gathers
  // through the global arc index ONCE, here, so the worker never needs
  // the global weight array.
  if (weighted) {
    cut.out_weights.reserve(shard.out_targets.size());
    for (NodeId v : shard.owned) {
      const auto row_weights = graph.OutWeights(v);
      cut.out_weights.insert(cut.out_weights.end(), row_weights.begin(),
                             row_weights.end());
    }
    const auto weights = graph.weights();
    cut.in_weights.reserve(shard.in_arc_index.size());
    for (EdgeIndex arc : shard.in_arc_index) {
      cut.in_weights.push_back(weights[static_cast<size_t>(arc)]);
    }
  }
  return cut;
}

Status SaveShardCut(const CsrGraph& graph, const GraphPartition& partition,
                    size_t shard_id, const std::string& path) {
  ShardCut cut;
  D2PR_ASSIGN_OR_RETURN(cut, CutShard(graph, partition, shard_id));
  const PartitionShard& shard = cut.shard;
  const ShardCutMetadata& meta = cut.meta;

  // --- header ---
  std::vector<uint8_t> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), kMagic, kMagic + sizeof(kMagic));
  AppendU32(header, kFormatVersion);
  AppendU32(header, kHeaderBytes);
  AppendU64(header, meta.graph_fingerprint);
  AppendI64(header, static_cast<int64_t>(meta.num_nodes));
  AppendI64(header, meta.num_arcs);
  AppendU32(header, static_cast<uint32_t>(meta.scheme));
  AppendU32(header, meta.shard_id);
  AppendU32(header, meta.num_shards);
  AppendU32(header, (meta.directed ? kFlagDirected : 0) |
                        (meta.weighted ? kFlagWeighted : 0));
  AppendU64(header, shard.owned.size());
  AppendU64(header, static_cast<uint64_t>(shard.out_targets.size()));
  AppendU64(header, static_cast<uint64_t>(shard.in_sources.size()));
  AppendU64(header, shard.dangling_owned.size());
  AppendU64(header, cut.boundary_sources.size());
  AppendU64(header, static_cast<uint64_t>(cut.ghost_targets.size()));

  struct Section {
    const void* data;
    size_t bytes;
  };
  const Section sections[] = {
      {shard.out_offsets.data(), shard.out_offsets.size() * 8},
      {shard.out_targets.data(), shard.out_targets.size() * 4},
      {shard.out_arc_begin.data(), shard.out_arc_begin.size() * 8},
      {shard.in_offsets.data(), shard.in_offsets.size() * 8},
      {shard.in_sources.data(), shard.in_sources.size() * 4},
      {shard.in_arc_index.data(), shard.in_arc_index.size() * 8},
      {shard.dangling_owned.data(), shard.dangling_owned.size() * 4},
      {cut.boundary_sources.data(), cut.boundary_sources.size() * 4},
      {cut.ghost_offsets.data(), cut.ghost_offsets.size() * 8},
      {cut.ghost_targets.data(), cut.ghost_targets.size() * 4},
  };
  for (const Section& section : sections) {
    AppendU64(header, Checksum64(section.data, section.bytes));
  }
  // The three weight runs share one chained checksum (section 10).
  uint64_t weights_checksum = 0;
  if (meta.weighted) {
    weights_checksum =
        Checksum64(cut.out_weights.data(), cut.out_weights.size() * 8);
    weights_checksum = Checksum64(cut.in_weights.data(),
                                  cut.in_weights.size() * 8, weights_checksum);
    weights_checksum =
        Checksum64(cut.ghost_weights.data(), cut.ghost_weights.size() * 8,
                   weights_checksum);
  }
  AppendU64(header, weights_checksum);
  AppendU64(header, Checksum64(header.data(), header.size()));
  D2PR_CHECK_EQ(header.size(), static_cast<size_t>(kHeaderBytes));

  std::vector<std::span<const std::byte>> chunks;
  chunks.push_back(std::as_bytes(std::span(header)));
  for (const Section& section : sections) {
    chunks.emplace_back(static_cast<const std::byte*>(section.data),
                        section.bytes);
  }
  if (meta.weighted) {
    chunks.push_back(std::as_bytes(std::span(cut.out_weights)));
    chunks.push_back(std::as_bytes(std::span(cut.in_weights)));
    chunks.push_back(std::as_bytes(std::span(cut.ghost_weights)));
  }
  return WriteFileAtomically(path, chunks);
}

Result<ShardCutMetadata> ReadShardCutMetadata(const std::string& path) {
  uint8_t header[kHeaderBytes];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(StrCat("cannot open ", path));
  }
  in.read(reinterpret_cast<char*>(header), kHeaderBytes);
  const size_t got = static_cast<size_t>(in.gcount());
  ParsedHeader parsed;
  D2PR_ASSIGN_OR_RETURN(parsed, ParseHeader(path, header, got));
  return parsed.meta;
}

Result<ShardCut> LoadShardCut(const std::string& path) {
  Result<MmapFile> file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  const uint8_t* bytes = file->data();

  ParsedHeader parsed;
  D2PR_ASSIGN_OR_RETURN(parsed, ParseHeader(path, bytes, file->size()));
  const ShardCutMetadata& meta = parsed.meta;
  const SectionCounts& counts = parsed.counts;

  // Exact size: the header's counts fully determine the payload.
  uint64_t expected = kHeaderBytes;
  for (size_t i = 0; i < kNumSections; ++i) {
    expected += SectionBytes(i, counts, meta.weighted);
  }
  if (file->size() != expected) {
    return Corrupt(path, StrCat("truncated or oversized: ", file->size(),
                                " bytes, header describes ", expected));
  }

  // Per-section checksums before any value is trusted. Section 10 chains
  // its three weight runs exactly as the writer did.
  {
    uint64_t offset = kHeaderBytes;
    for (size_t i = 0; i < kNumSections; ++i) {
      const uint64_t size = SectionBytes(i, counts, meta.weighted);
      const uint64_t actual = Checksum64(bytes + offset, size);
      if (actual != parsed.section_checksums[i] &&
          !(i == 10 && !meta.weighted)) {
        return Corrupt(path, StrCat("section ", i, " checksum mismatch"));
      }
      offset += size;
    }
  }

  ShardCut cut;
  cut.meta = meta;
  PartitionShard& shard = cut.shard;
  {
    const uint8_t* p = bytes + kHeaderBytes;
    CopySection(p, counts.owned + 1, &shard.out_offsets);
    p += SectionBytes(0, counts, meta.weighted);
    CopySection(p, counts.out_arcs, &shard.out_targets);
    p += SectionBytes(1, counts, meta.weighted);
    CopySection(p, counts.owned, &shard.out_arc_begin);
    p += SectionBytes(2, counts, meta.weighted);
    CopySection(p, counts.owned + 1, &shard.in_offsets);
    p += SectionBytes(3, counts, meta.weighted);
    CopySection(p, counts.in_arcs, &shard.in_sources);
    p += SectionBytes(4, counts, meta.weighted);
    CopySection(p, counts.in_arcs, &shard.in_arc_index);
    p += SectionBytes(5, counts, meta.weighted);
    CopySection(p, counts.dangling, &shard.dangling_owned);
    p += SectionBytes(6, counts, meta.weighted);
    CopySection(p, counts.boundary, &cut.boundary_sources);
    p += SectionBytes(7, counts, meta.weighted);
    CopySection(p, counts.boundary + 1, &cut.ghost_offsets);
    p += SectionBytes(8, counts, meta.weighted);
    CopySection(p, counts.ghost_arcs, &cut.ghost_targets);
    p += SectionBytes(9, counts, meta.weighted);
    if (meta.weighted) {
      CopySection(p, counts.out_arcs, &cut.out_weights);
      p += counts.out_arcs * 8;
      CopySection(p, counts.in_arcs, &cut.in_weights);
      p += counts.in_arcs * 8;
      CopySection(p, counts.ghost_arcs, &cut.ghost_weights);
    }
  }

  // --- structural validation: the file must DESCRIBE the shard the
  // ownership rule would cut, not merely checksum cleanly. ---
  const NodeId n = meta.num_nodes;
  const auto owner_of = [&](NodeId v) {
    return PartitionOwnerOf(meta.scheme, v, n, meta.num_shards);
  };

  // Owned list: derived, not stored — the rule is closed-form.
  shard.owned.reserve(static_cast<size_t>(counts.owned));
  for (NodeId v = 0; v < n; ++v) {
    if (owner_of(v) == meta.shard_id) shard.owned.push_back(v);
  }
  if (shard.owned.size() != counts.owned) {
    return Corrupt(path, StrCat("header claims ", counts.owned,
                                " owned nodes, the ownership rule assigns ",
                                shard.owned.size()));
  }

  // Out-CSR shape: monotone offsets bracketing ascending in-range rows,
  // each row anchored at a plausible global arc index, rows in ascending
  // disjoint global order (owned ids ascend, rows are whole graph rows).
  if (shard.out_offsets.front() != 0 ||
      shard.out_offsets.back() != static_cast<EdgeIndex>(counts.out_arcs)) {
    return Corrupt(path, "out-CSR offsets do not bracket the arc section");
  }
  for (size_t k = 0; k < shard.owned.size(); ++k) {
    const EdgeIndex begin = shard.out_offsets[k];
    const EdgeIndex end = shard.out_offsets[k + 1];
    if (end < begin) return Corrupt(path, "out-CSR offsets not monotone");
    NodeId prev = -1;
    for (EdgeIndex e = begin; e < end; ++e) {
      const NodeId t = shard.out_targets[static_cast<size_t>(e)];
      if (t < 0 || t >= n || t <= prev) {
        return Corrupt(path, StrCat("out-row of node ", shard.owned[k],
                                    " is not ascending in-range"));
      }
      prev = t;
    }
    const EdgeIndex arc_begin = shard.out_arc_begin[k];
    if (arc_begin < 0 || arc_begin + (end - begin) > meta.num_arcs ||
        (k > 0 && arc_begin < shard.out_arc_begin[k - 1] +
                                  (shard.out_offsets[k] -
                                   shard.out_offsets[k - 1]))) {
      return Corrupt(path, StrCat("out-row of node ", shard.owned[k],
                                  " has an implausible global arc index"));
    }
  }

  // In-CSR shape: strictly ascending sources per row, arc indexes in
  // range; interiority is derived from the ownership rule, boundary
  // counters recomputed.
  if (shard.in_offsets.front() != 0 ||
      shard.in_offsets.back() != static_cast<EdgeIndex>(counts.in_arcs)) {
    return Corrupt(path, "in-CSR offsets do not bracket the arc section");
  }
  shard.in_interior.resize(shard.in_sources.size());
  for (size_t k = 0; k < shard.owned.size(); ++k) {
    const EdgeIndex begin = shard.in_offsets[k];
    const EdgeIndex end = shard.in_offsets[k + 1];
    if (end < begin) return Corrupt(path, "in-CSR offsets not monotone");
    NodeId prev = -1;
    for (EdgeIndex e = begin; e < end; ++e) {
      const size_t idx = static_cast<size_t>(e);
      const NodeId src = shard.in_sources[idx];
      if (src < 0 || src >= n || src <= prev) {
        return Corrupt(path, StrCat("in-row of node ", shard.owned[k],
                                    " is not ascending in-range"));
      }
      prev = src;
      const EdgeIndex arc = shard.in_arc_index[idx];
      if (arc < 0 || arc >= meta.num_arcs) {
        return Corrupt(path, StrCat("in-arc index ", arc, " out of range"));
      }
      const bool interior = owner_of(src) == meta.shard_id;
      shard.in_interior[idx] = interior ? 1 : 0;
      if (!interior) ++shard.boundary_in_arcs;
    }
  }
  for (NodeId t : shard.out_targets) {
    if (owner_of(t) != meta.shard_id) ++shard.boundary_out_arcs;
  }

  // Dangling list: ascending owned nodes whose stored out-row is empty,
  // and COMPLETE (every empty owned row listed).
  {
    NodeId prev = -1;
    for (NodeId v : shard.dangling_owned) {
      if (v < 0 || v >= n || v <= prev || owner_of(v) != meta.shard_id) {
        return Corrupt(path, "dangling list is not ascending owned nodes");
      }
      prev = v;
      const auto it =
          std::lower_bound(shard.owned.begin(), shard.owned.end(), v);
      const size_t k = static_cast<size_t>(it - shard.owned.begin());
      if (shard.out_offsets[k + 1] != shard.out_offsets[k]) {
        return Corrupt(path, StrCat("dangling list names node ", v,
                                    " whose out-row is not empty"));
      }
    }
    uint64_t empty_rows = 0;
    for (size_t k = 0; k < shard.owned.size(); ++k) {
      if (shard.out_offsets[k + 1] == shard.out_offsets[k]) ++empty_rows;
    }
    if (empty_rows != counts.dangling) {
      return Corrupt(path, StrCat("dangling list holds ", counts.dangling,
                                  " nodes, the out-CSR has ", empty_rows,
                                  " empty rows"));
    }
  }

  // Boundary list: must equal the derivation from the in-CSR exactly.
  if (BoundarySources(shard, n) != cut.boundary_sources) {
    return Corrupt(path, "boundary-source list disagrees with the in-CSR");
  }

  // Ghost rows: one non-empty ascending in-range row per boundary source
  // (a boundary source, by construction, has at least the out-arc that
  // made it one).
  if (cut.ghost_offsets.front() != 0 ||
      cut.ghost_offsets.back() != static_cast<EdgeIndex>(counts.ghost_arcs)) {
    return Corrupt(path, "ghost offsets do not bracket the arc section");
  }
  for (size_t b = 0; b < cut.boundary_sources.size(); ++b) {
    const EdgeIndex begin = cut.ghost_offsets[b];
    const EdgeIndex end = cut.ghost_offsets[b + 1];
    if (end <= begin) {
      return Corrupt(path, StrCat("ghost row of boundary source ",
                                  cut.boundary_sources[b],
                                  " is empty or non-monotone"));
    }
    NodeId prev = -1;
    for (EdgeIndex e = begin; e < end; ++e) {
      const NodeId t = cut.ghost_targets[static_cast<size_t>(e)];
      if (t < 0 || t >= n || t <= prev) {
        return Corrupt(path, StrCat("ghost row of boundary source ",
                                    cut.boundary_sources[b],
                                    " is not ascending in-range"));
      }
      prev = t;
    }
  }

  return cut;
}

}  // namespace d2pr
