// Little-endian binary I/O primitives shared by the persistent file
// formats (the transition store, and any future on-disk cache).
//
// Four pieces:
//   * fixed-width append/read helpers over raw byte buffers, so a file
//     format can assemble its header in memory, checksum it, and write it
//     in one shot — plus their bulk array forms, one memcpy per section
//     or list, which write and read exactly the same bytes;
//   * Checksum64, the checksum used for per-section corruption detection —
//     not cryptographic, but deterministic, dependency-free, and reliable
//     against the truncation and bit-flip failures disks actually produce;
//   * WriteFileAtomically, the temp + fsync + rename write every format
//     publishes its files with;
//   * MmapFile, a read-only memory mapping with RAII unmap, so a reader
//     can hand out spans into file pages instead of copying payloads.

#ifndef D2PR_COMMON_BINARY_IO_H_
#define D2PR_COMMON_BINARY_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace d2pr {

// Every helper below copies host bytes, so a big-endian build would write
// wire, store and cut files no little-endian peer can read: refuse it.
static_assert(std::endian::native == std::endian::little,
              "d2pr binary formats require a little-endian target");

/// \brief 64-bit FNV-1a-style checksum over `bytes` bytes, continuing
/// from `seed` so multiple sections can be chained into one running
/// checksum.
///
/// Word-at-a-time variant of FNV-1a (each 8-byte lane is one symbol, the
/// tail is folded byte-wise): ~8x the throughput of canonical FNV, which
/// matters because the store verifies multi-megabyte payloads on every
/// load. Any single-bit flip changes the result (xor then multiply by an
/// odd prime is bijective per step); truncations are caught by the
/// explicit size fields, not the checksum.
uint64_t Checksum64(const void* data, size_t bytes,
                    uint64_t seed = 14695981039346656037ull);

/// \brief Appends a fixed-width little-endian value to `out`.
void AppendU32(std::vector<uint8_t>& out, uint32_t value);
void AppendU64(std::vector<uint8_t>& out, uint64_t value);
void AppendI64(std::vector<uint8_t>& out, int64_t value);
/// Appends the IEEE-754 bit pattern, so round-trips are bit-exact
/// (including NaN payloads and signed zeros).
void AppendF64(std::vector<uint8_t>& out, double value);

/// \brief Reads a fixed-width little-endian value at `p` (caller has
/// bounds-checked).
uint32_t ReadU32(const uint8_t* p);
uint64_t ReadU64(const uint8_t* p);
int64_t ReadI64(const uint8_t* p);
double ReadF64(const uint8_t* p);

/// \brief Appends `values` as consecutive fixed-width little-endian
/// elements in one bulk copy: byte for byte what appending each element
/// with the helper of its width writes (an int32 node id lands as the
/// u32 of the same bits, a double as its IEEE-754 pattern).
template <typename T>
void AppendArray(std::vector<uint8_t>& out, std::span<const T> values) {
  static_assert(std::is_arithmetic_v<T>);
  if (values.empty()) return;
  const size_t offset = out.size();
  out.resize(offset + values.size_bytes());
  std::memcpy(out.data() + offset, values.data(), values.size_bytes());
}

/// \brief Fills `out` from consecutive fixed-width little-endian elements
/// at `p` (any alignment; caller has bounds-checked `out.size_bytes()`)
/// in one bulk copy.
template <typename T>
void ReadArray(const uint8_t* p, std::span<T> out) {
  static_assert(std::is_arithmetic_v<T>);
  if (out.empty()) return;
  std::memcpy(out.data(), p, out.size_bytes());
}

/// \brief Writes the concatenation of `chunks` to `path` so that readers
/// see either the old file or the complete new one.
///
/// The bytes go to a unique temp file beside `path`
/// (`<path>.tmp.<pid>.<n>`, so concurrent writers of one path never
/// interleave), are flushed and fsync-ed, then renamed over `path`. The
/// temp file is removed on every failure. IoError names the failed step
/// and the file.
Status WriteFileAtomically(const std::string& path,
                           std::span<const std::span<const std::byte>> chunks);

/// \brief Read-only memory mapping of a whole file.
///
/// Move-only RAII: the mapping lives until destruction, so readers can
/// share spans into the pages by keeping the MmapFile alive (typically
/// inside a shared_ptr next to the spans). An empty file maps to an empty
/// span.
class MmapFile {
 public:
  /// Maps `path` read-only. IoError when the file cannot be opened,
  /// stat-ed, or mapped.
  static Result<MmapFile> Open(const std::string& path);

  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  std::span<const uint8_t> bytes() const { return {data_, size_}; }

 private:
  MmapFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace d2pr

#endif  // D2PR_COMMON_BINARY_IO_H_
