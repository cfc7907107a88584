// Deterministic corpus replay of the wire decoders: every golden payload
// of wire_golden_fixtures.h, with every single-byte flip (three masks per
// byte) and every truncation, goes through its decoder. Each case must
// come back as OK or as a non-OK Status — never a crash, and never an
// allocation larger than the payload could justify.
//
// A separate test binary because it replaces the global operator new to
// record the largest allocation each decode requests; the replacement
// stays out of the main suite. The sanitizer builds run it like any
// other ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "wire_golden_fixtures.h"

namespace {

// Largest single allocation requested on this thread while armed.
thread_local bool g_recording = false;
thread_local size_t g_largest = 0;

void* Allocate(size_t size) {
  if (g_recording && size > g_largest) g_largest = size;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateNoThrow(size_t size) noexcept {
  if (g_recording && size > g_largest) g_largest = size;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(size_t size) { return Allocate(size); }
void* operator new[](size_t size) { return Allocate(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return AllocateNoThrow(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return AllocateNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace d2pr {
namespace {

using golden::GoldenPayload;

// A rejection formats its message through a string stream, whose buffer
// is about half a KiB; no allocation sized by the input may exceed the
// payload itself. A count the decoder trusted would show as an
// allocation of thousands of bytes or more from these ~100-byte frames.
constexpr size_t kMessageSlack = 1024;

/// Runs one mutated payload through `golden`'s decoder and checks the
/// allocation bound. Returns whether it decoded OK.
bool Replay(const GoldenPayload& golden, const std::vector<uint8_t>& bytes,
            const char* mutation, size_t at) {
  g_largest = 0;
  g_recording = true;
  const Status status = golden.decode(std::span<const uint8_t>(bytes));
  g_recording = false;
  EXPECT_LE(g_largest, std::max(bytes.size(), kMessageSlack))
      << golden.name << " " << mutation << " at " << at << ": "
      << status.ToString();
  return status.ok();
}

TEST(WireCorpusReplayTest, GoldenFramesDecode) {
  for (const GoldenPayload& golden : golden::GoldenPayloads()) {
    EXPECT_TRUE(Replay(golden, *golden.bytes, "unmutated", 0)) << golden.name;
  }
}

TEST(WireCorpusReplayTest, EverySingleByteFlipIsOkOrAStatus) {
  for (const GoldenPayload& golden : golden::GoldenPayloads()) {
    int rejected = 0;
    for (size_t i = 0; i < golden.bytes->size(); ++i) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
        std::vector<uint8_t> flipped = *golden.bytes;
        flipped[i] ^= mask;
        if (!Replay(golden, flipped, "flip", i)) ++rejected;
      }
    }
    // Flipping a count or an enum must be caught somewhere.
    EXPECT_GT(rejected, 0) << golden.name;
  }
}

TEST(WireCorpusReplayTest, EveryTruncationIsOkOrAStatus) {
  for (const GoldenPayload& golden : golden::GoldenPayloads()) {
    int decoded = 0;
    for (size_t length = 0; length < golden.bytes->size(); ++length) {
      const std::vector<uint8_t> cut(golden.bytes->begin(),
                                     golden.bytes->begin() +
                                         static_cast<ptrdiff_t>(length));
      if (Replay(golden, cut, "truncation", length)) ++decoded;
    }
    // Only a cut exactly before an optional trailing section (the ack's
    // needs-metric byte, the solve begin's metric list) is itself a
    // complete frame.
    EXPECT_LE(decoded, 1) << golden.name;
  }
}

}  // namespace
}  // namespace d2pr
