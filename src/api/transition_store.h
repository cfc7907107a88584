// TransitionStore: the persistent spill layer under D2prEngine's
// transition cache.
//
// Building a TransitionMatrix is the O(|E|) setup cost every serving
// process pays per (p, beta, metric) point — and pays again, from zero,
// after every restart. The store persists built matrices — their O(|V|)
// factors (core/transition.h) — to a directory in a versioned
// little-endian binary format so a restarted process loads them back in
// instead of rebuilding:
//
//   d2pr transition store file, format version 2 (96-byte header):
//     [ 0,  8)  magic "D2PRTMTX"
//     [ 8, 12)  format version (u32)
//     [12, 16)  header bytes (u32, = 96)
//     [16, 24)  graph fingerprint (u64, see GraphFingerprint)
//     [24, 32)  num_nodes (i64)
//     [32, 40)  num_arcs (i64)
//     [40, 48)  key.p (f64, exact bits)
//     [48, 56)  key.beta (f64, exact bits)
//     [56, 60)  key.metric (u32)
//     [60, 64)  flags (u32): bit 0 sink term, bit 1 blend term
//     [64, 72)  factors section checksum (u64, FNV-1a)
//     [72, 80)  byte section checksum (u64, FNV-1a)
//     [80, 88)  header checksum (u64, FNV-1a over bytes [0, 80))
//     [88, 96)  padding (0) — keeps the factors 8-byte aligned
//     factors (f64[num_nodes] each): u, c, then sink_c if bit 0, then
//                                    blend_c if bit 1
//     bytes   (u8[num_nodes] each):  dangling, then sink if bit 0
//
// Version 1 stored one f64 probability per arc; its files are refused
// with FailedPrecondition and rebuilt, and the write-through spill
// replaces them.
//
// The read path mmaps the file, verifies it, and copies the O(|V|)
// sections out; the mapping is released before Load returns, so a
// loaded matrix is independent of later store rewrites (writers replace
// files atomically via rename, never in place).
//
// Safety model — a store file is used only when every gate passes, and a
// failed gate is a clear error, never a silent fallback:
//   * magic and format version match (old/foreign files are rejected;
//     format changes must bump kFormatVersion),
//   * the header checksum proves the header intact,
//   * the graph fingerprint, node count, and arc count match the serving
//     graph (a store can never be replayed against a different graph),
//   * the key stored in the header is bit-identical to the requested one
//     (a renamed file cannot impersonate another parameter point),
//   * the file has exactly the advertised size (truncation),
//   * per-section checksums prove the payload intact (bit flips).
//
// Concurrency: Save writes to a unique temp file and renames it into
// place, so concurrent writers (e.g. two engines or processes sharing
// one cache_dir) race benignly — last rename wins with a complete file, and
// readers only ever map complete files.

#ifndef D2PR_API_TRANSITION_STORE_H_
#define D2PR_API_TRANSITION_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "core/transition.h"

namespace d2pr {

/// \brief Directory of persisted TransitionMatrix files, one per
/// (graph fingerprint, transition key).
class TransitionStore {
 public:
  /// The format version this build reads and writes. Any change to the
  /// layout above must bump it (the golden-file test enforces that the
  /// version-2 layout keeps loading byte-exactly).
  static constexpr uint32_t kFormatVersion = 2;

  explicit TransitionStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Deterministic file name for a (fingerprint, key) pair. Doubles are
  /// encoded by their exact bit pattern, so distinct keys never collide
  /// and equal keys always map to the same file.
  static std::string FileNameFor(uint64_t graph_fingerprint,
                                 const TransitionKey& key);

  /// Full path of the store file for (fingerprint, key).
  std::string PathFor(uint64_t graph_fingerprint,
                      const TransitionKey& key) const;

  /// True if a store file exists for (fingerprint, key). Existence only —
  /// Load still applies every validity gate.
  bool Contains(uint64_t graph_fingerprint, const TransitionKey& key) const;

  /// \brief Persists `matrix` under (fingerprint, key), creating the
  /// store directory if needed. Atomic: readers see the old file or the
  /// complete new one, never a partial write.
  Status Save(uint64_t graph_fingerprint, const TransitionKey& key,
              const TransitionMatrix& matrix) const;

  /// \brief Loads the matrix persisted under (fingerprint, key).
  ///
  /// `expected_num_nodes` / `expected_num_arcs` are the serving graph's
  /// counts; the header must match them exactly (the count gate backing
  /// up the fingerprint, and the bound that keeps every size computation
  /// below overflow-free of header-controlled values).
  ///
  /// NotFound when no file exists; FailedPrecondition when the file
  /// belongs to a different graph, key, or format version; IoError when
  /// the file is truncated, fails a checksum or names unknown sections.
  Result<std::shared_ptr<const TransitionMatrix>> Load(
      uint64_t graph_fingerprint, const TransitionKey& key,
      NodeId expected_num_nodes, EdgeIndex expected_num_arcs) const;

 private:
  std::string dir_;
};

}  // namespace d2pr

#endif  // D2PR_API_TRANSITION_STORE_H_
