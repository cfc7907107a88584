// Shared internals of the wire codecs (net/wire.cc and
// net/shard_wire.cc): the bounds-checked payload cursor and the common
// truncation diagnostic. Not part of the public surface — payload
// decoders are declared in wire.h / shard_wire.h; this header only keeps
// the two codec translation units from duplicating their byte-walking
// discipline (one implementation means one set of bounds-check bugs).

#ifndef D2PR_NET_WIRE_INTERNAL_H_
#define D2PR_NET_WIRE_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/binary_io.h"
#include "common/status.h"
#include "common/string_util.h"

namespace d2pr {
namespace wire_internal {

/// Bounds-checked forward reader over one payload. Every Read* returns
/// false instead of walking past the end, so a decoder is a linear chain
/// of reads with one truncation diagnostic at the end.
class Cursor {
 public:
  explicit Cursor(std::span<const uint8_t> bytes)
      : p_(bytes.data()), remaining_(bytes.size()) {}

  size_t remaining() const { return remaining_; }

  bool ReadU32(uint32_t* value) {
    if (remaining_ < 4) return false;
    *value = d2pr::ReadU32(p_);
    Advance(4);
    return true;
  }
  bool ReadU64(uint64_t* value) {
    if (remaining_ < 8) return false;
    *value = d2pr::ReadU64(p_);
    Advance(8);
    return true;
  }
  bool ReadI64(int64_t* value) {
    if (remaining_ < 8) return false;
    *value = d2pr::ReadI64(p_);
    Advance(8);
    return true;
  }
  bool ReadF64(double* value) {
    if (remaining_ < 8) return false;
    *value = d2pr::ReadF64(p_);
    Advance(8);
    return true;
  }
  bool ReadU8(uint8_t* value) {
    if (remaining_ < 1) return false;
    *value = *p_;
    Advance(1);
    return true;
  }
  /// Views the next `length` bytes in place (no copy) and steps past
  /// them; false, with nothing consumed, when fewer remain.
  bool ReadBytes(uint64_t length, std::span<const uint8_t>* bytes) {
    if (remaining_ < length) return false;
    *bytes = std::span<const uint8_t>(p_, static_cast<size_t>(length));
    Advance(static_cast<size_t>(length));
    return true;
  }
  bool ReadString(uint64_t length, std::string* value) {
    if (remaining_ < length) return false;
    value->assign(reinterpret_cast<const char*>(p_),
                  static_cast<size_t>(length));
    Advance(static_cast<size_t>(length));
    return true;
  }

 private:
  void Advance(size_t n) {
    p_ += n;
    remaining_ -= n;
  }

  const uint8_t* p_;
  size_t remaining_;
};

inline Status Truncated(const char* what) {
  return Status::InvalidArgument(StrCat("truncated ", what, " payload"));
}

}  // namespace wire_internal
}  // namespace d2pr

#endif  // D2PR_NET_WIRE_INTERNAL_H_
