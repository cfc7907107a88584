#include "api/transition_store.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/string_util.h"

namespace d2pr {

namespace {

constexpr char kMagic[8] = {'D', '2', 'P', 'R', 'T', 'M', 'T', 'X'};
constexpr uint32_t kHeaderBytes = 96;
constexpr size_t kHeaderChecksumOffset = 80;  // checksum covers [0, 80)

// Header field offsets (see the layout table in transition_store.h).
constexpr size_t kVersionOffset = 8;
constexpr size_t kHeaderBytesOffset = 12;
constexpr size_t kFingerprintOffset = 16;
constexpr size_t kNumNodesOffset = 24;
constexpr size_t kNumArcsOffset = 32;
constexpr size_t kKeyPOffset = 40;
constexpr size_t kKeyBetaOffset = 48;
constexpr size_t kKeyMetricOffset = 56;
constexpr size_t kFlagsOffset = 60;
constexpr size_t kFactorsChecksumOffset = 64;
constexpr size_t kBytesChecksumOffset = 72;

// Header flags: which optional factor sections follow.
constexpr uint32_t kSinkTermFlag = 1u << 0;
constexpr uint32_t kBlendTermFlag = 1u << 1;
constexpr uint32_t kKnownFlags = kSinkTermFlag | kBlendTermFlag;

std::string Hex16(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

TransitionStore::TransitionStore(std::string dir) : dir_(std::move(dir)) {
  // Best-effort sweep of temp files orphaned by crashed writers, so a
  // long-lived shared cache_dir does not accumulate matrix-sized junk.
  // Only temps old enough that no live writer can own them are removed —
  // a freshly started concurrent process must not lose its in-flight
  // write.
  std::error_code ec;
  if (!std::filesystem::is_directory(dir_, ec)) return;
  const auto now = std::filesystem::file_time_type::clock::now();
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().filename().string().find(".d2ptm.tmp.") ==
        std::string::npos) {
      continue;
    }
    const auto written = std::filesystem::last_write_time(entry.path(), ec);
    if (!ec && now - written > std::chrono::hours(1)) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

std::string TransitionStore::FileNameFor(uint64_t graph_fingerprint,
                                         const TransitionKey& key) {
  return StrCat("tm-", Hex16(graph_fingerprint), "-p",
                Hex16(std::bit_cast<uint64_t>(key.p)), "-b",
                Hex16(std::bit_cast<uint64_t>(key.beta)), "-m",
                static_cast<uint32_t>(key.metric), ".d2ptm");
}

std::string TransitionStore::PathFor(uint64_t graph_fingerprint,
                                     const TransitionKey& key) const {
  return StrCat(dir_, "/", FileNameFor(graph_fingerprint, key));
}

bool TransitionStore::Contains(uint64_t graph_fingerprint,
                               const TransitionKey& key) const {
  std::error_code ec;
  return std::filesystem::exists(PathFor(graph_fingerprint, key), ec);
}

Status TransitionStore::Save(uint64_t graph_fingerprint,
                             const TransitionKey& key,
                             const TransitionMatrix& matrix) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError(
        StrCat("cannot create store directory ", dir_, ": ", ec.message()));
  }

  const TransitionFactors& f = matrix.factors();
  const std::span<const uint8_t> dangling = matrix.dangling();
  std::vector<std::span<const double>> factors = {f.u, f.c};
  if (f.has_sink()) factors.push_back(f.sink_c);
  if (f.has_blend()) factors.push_back(f.blend_c);
  // The u8 sections go out as one chunk, checksummed in one pass as the
  // loader reads them.
  std::vector<uint8_t> flag_bytes(dangling.begin(), dangling.end());
  flag_bytes.insert(flag_bytes.end(), f.sink.begin(), f.sink.end());
  // Every factor section is a multiple of 8 bytes, so chaining the
  // checksum section by section equals one pass over the concatenation.
  uint64_t factors_checksum = Checksum64(nullptr, 0);
  for (const auto& section : factors) {
    factors_checksum =
        Checksum64(section.data(), section.size_bytes(), factors_checksum);
  }

  std::vector<uint8_t> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), kMagic, kMagic + sizeof(kMagic));
  AppendU32(header, kFormatVersion);
  AppendU32(header, kHeaderBytes);
  AppendU64(header, graph_fingerprint);
  AppendI64(header, static_cast<int64_t>(matrix.num_nodes()));
  AppendI64(header, static_cast<int64_t>(matrix.num_arcs()));
  AppendF64(header, key.p);
  AppendF64(header, key.beta);
  AppendU32(header, static_cast<uint32_t>(key.metric));
  AppendU32(header, (f.has_sink() ? kSinkTermFlag : 0) |
                        (f.has_blend() ? kBlendTermFlag : 0));
  AppendU64(header, factors_checksum);
  AppendU64(header, Checksum64(flag_bytes.data(), flag_bytes.size()));
  AppendU64(header, Checksum64(header.data(), kHeaderChecksumOffset));
  AppendU64(header, 0);  // padding: the factors start 8-byte aligned
  D2PR_CHECK_EQ(header.size(), static_cast<size_t>(kHeaderBytes));

  std::vector<std::span<const std::byte>> chunks = {
      std::as_bytes(std::span(header))};
  for (const auto& section : factors) chunks.push_back(std::as_bytes(section));
  chunks.push_back(std::as_bytes(std::span(flag_bytes)));
  return WriteFileAtomically(PathFor(graph_fingerprint, key), chunks);
}

Result<std::shared_ptr<const TransitionMatrix>> TransitionStore::Load(
    uint64_t graph_fingerprint, const TransitionKey& key,
    NodeId expected_num_nodes, EdgeIndex expected_num_arcs) const {
  const std::string path = PathFor(graph_fingerprint, key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound(StrCat("no persisted transition at ", path));
  }
  D2PR_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  const uint8_t* bytes = file.data();

  // Gate order matters for error quality: identify the file kind first
  // (magic, version), then prove the header trustworthy (checksum), and
  // only then interpret its fields.
  if (file.size() < kHeaderBytes ||
      std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError(
        StrCat(path, ": not a d2pr transition store file (bad magic)"));
  }
  const uint32_t version = ReadU32(bytes + kVersionOffset);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        StrCat(path, ": format version ", version, ", this reader supports ",
               kFormatVersion));
  }
  if (ReadU32(bytes + kHeaderBytesOffset) != kHeaderBytes ||
      ReadU64(bytes + kHeaderChecksumOffset) !=
          Checksum64(bytes, kHeaderChecksumOffset)) {
    return Status::IoError(
        StrCat(path, ": header checksum mismatch (corrupt store file)"));
  }

  const uint64_t stored_fingerprint = ReadU64(bytes + kFingerprintOffset);
  if (stored_fingerprint != graph_fingerprint) {
    return Status::FailedPrecondition(
        StrCat(path, ": graph fingerprint mismatch (store ",
               Hex16(stored_fingerprint), ", serving graph ",
               Hex16(graph_fingerprint),
               "); the store was built for a different graph"));
  }
  const double stored_p = ReadF64(bytes + kKeyPOffset);
  const double stored_beta = ReadF64(bytes + kKeyBetaOffset);
  const uint32_t stored_metric = ReadU32(bytes + kKeyMetricOffset);
  if (std::bit_cast<uint64_t>(stored_p) != std::bit_cast<uint64_t>(key.p) ||
      std::bit_cast<uint64_t>(stored_beta) !=
          std::bit_cast<uint64_t>(key.beta) ||
      stored_metric != static_cast<uint32_t>(key.metric)) {
    return Status::FailedPrecondition(
        StrCat(path, ": stored key (p=", stored_p, ", beta=", stored_beta,
               ", metric=", stored_metric,
               ") does not match the requested key"));
  }

  const int64_t num_nodes = ReadI64(bytes + kNumNodesOffset);
  const int64_t num_arcs = ReadI64(bytes + kNumArcsOffset);
  // Exact count match against the serving graph — the documented gate
  // backing up the fingerprint, and what makes every size expression
  // below safe: from here on the counts are the caller's sane values,
  // not header-controlled integers that could overflow the arithmetic.
  if (num_nodes != static_cast<int64_t>(expected_num_nodes) ||
      num_arcs != static_cast<int64_t>(expected_num_arcs)) {
    return Status::FailedPrecondition(
        StrCat(path, ": stored sections (", num_nodes, " nodes, ", num_arcs,
               " arcs) do not match the serving graph (", expected_num_nodes,
               " nodes, ", expected_num_arcs,
               " arcs); the store was built for a different graph"));
  }
  const uint32_t flags = ReadU32(bytes + kFlagsOffset);
  if ((flags & ~kKnownFlags) != 0) {
    return Status::IoError(
        StrCat(path, ": unknown section flags ", flags));
  }

  // The payload's sections in file order: the f64 factor sections, then
  // the u8 sections.
  TransitionFactors factors;
  std::vector<uint8_t> dangling;
  const bool sink = (flags & kSinkTermFlag) != 0;
  std::vector<std::vector<double>*> factor_sections = {&factors.u,
                                                       &factors.c};
  if (sink) factor_sections.push_back(&factors.sink_c);
  if (flags & kBlendTermFlag) factor_sections.push_back(&factors.blend_c);
  std::vector<std::vector<uint8_t>*> byte_sections = {&dangling};
  if (sink) byte_sections.push_back(&factors.sink);
  const size_t n = static_cast<size_t>(num_nodes);
  const uint64_t expected_size =
      kHeaderBytes + (factor_sections.size() * 8 + byte_sections.size()) *
                         static_cast<uint64_t>(n);
  if (file.size() != expected_size) {
    return Status::IoError(
        StrCat(path, ": truncated or oversized store file (", file.size(),
               " bytes, header advertises ", expected_size, ")"));
  }

  const uint8_t* factor_bytes = bytes + kHeaderBytes;
  const size_t factors_size = factor_sections.size() * 8 * n;
  const uint8_t* flag_bytes = factor_bytes + factors_size;
  if (ReadU64(bytes + kFactorsChecksumOffset) !=
      Checksum64(factor_bytes, factors_size)) {
    return Status::IoError(StrCat(
        path, ": factors section checksum mismatch (corrupt store file)"));
  }
  if (ReadU64(bytes + kBytesChecksumOffset) !=
      Checksum64(flag_bytes, byte_sections.size() * n)) {
    return Status::IoError(StrCat(
        path, ": dangling section checksum mismatch (corrupt store file)"));
  }

  // O(|V|) copies out of the validated mapping, one bulk copy per section.
  for (size_t k = 0; k < factor_sections.size(); ++k) {
    factor_sections[k]->resize(n);
    ReadArray(factor_bytes + k * n * 8,
              std::span<double>(*factor_sections[k]));
  }
  for (size_t k = 0; k < byte_sections.size(); ++k) {
    byte_sections[k]->assign(flag_bytes + k * n, flag_bytes + (k + 1) * n);
  }
  return std::make_shared<const TransitionMatrix>(
      std::move(factors), std::move(dangling), expected_num_arcs);
}

}  // namespace d2pr
