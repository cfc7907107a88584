#include "common/binary_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"

namespace d2pr {

uint64_t Checksum64(const void* data, size_t bytes, uint64_t seed) {
  constexpr uint64_t kPrime = 1099511628211ull;  // the 64-bit FNV prime
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    hash ^= word;
    hash *= kPrime;
  }
  for (; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kPrime;
  }
  return hash;
}

namespace {

template <typename T>
void AppendRaw(std::vector<uint8_t>& out, T value) {
  const size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
T ReadRaw(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

}  // namespace

void AppendU32(std::vector<uint8_t>& out, uint32_t value) {
  AppendRaw(out, value);
}
void AppendU64(std::vector<uint8_t>& out, uint64_t value) {
  AppendRaw(out, value);
}
void AppendI64(std::vector<uint8_t>& out, int64_t value) {
  AppendRaw(out, value);
}
void AppendF64(std::vector<uint8_t>& out, double value) {
  AppendRaw(out, value);
}

uint32_t ReadU32(const uint8_t* p) { return ReadRaw<uint32_t>(p); }
uint64_t ReadU64(const uint8_t* p) { return ReadRaw<uint64_t>(p); }
int64_t ReadI64(const uint8_t* p) { return ReadRaw<int64_t>(p); }
double ReadF64(const uint8_t* p) { return ReadRaw<double>(p); }

Status WriteFileAtomically(
    const std::string& path,
    std::span<const std::span<const std::byte>> chunks) {
  // Unique temp name so concurrent writers (engines sharing one
  // cache_dir) never interleave into one file; rename is atomic on POSIX.
  static std::atomic<uint64_t> temp_counter{0};
  const std::string temp_path =
      StrCat(path, ".tmp.", static_cast<int64_t>(::getpid()), ".",
             static_cast<int64_t>(temp_counter.fetch_add(1)));
  std::error_code ec;
  {
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError(StrCat("cannot open for write: ", temp_path));
    }
    for (const std::span<const std::byte> chunk : chunks) {
      out.write(reinterpret_cast<const char*>(chunk.data()),
                static_cast<std::streamsize>(chunk.size()));
    }
    out.flush();
    if (!out) {
      std::filesystem::remove(temp_path, ec);
      return Status::IoError(StrCat("write failed: ", temp_path));
    }
  }
  // Push the data to stable storage before the rename commits the name:
  // otherwise a power cut can publish an empty/partial file under the
  // final name.
  {
    const int fd = ::open(temp_path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      std::filesystem::remove(temp_path, ec);
      return Status::IoError(StrCat("cannot fsync: ", temp_path));
    }
    ::close(fd);
  }
  std::error_code rename_ec;
  std::filesystem::rename(temp_path, path, rename_ec);
  if (rename_ec) {
    const std::string reason = rename_ec.message();  // before remove resets ec
    std::filesystem::remove(temp_path, ec);
    return Status::IoError(
        StrCat("cannot rename ", temp_path, " -> ", path, ": ", reason));
  }
  return Status::OK();
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(StrCat("cannot open for mmap: ", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError(StrCat("cannot stat: ", path));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return MmapFile(nullptr, 0);
  }
  // MAP_PRIVATE: the mapping is read-only to us, and later writers
  // replacing the file (rename-over) must not mutate pages under a loaded
  // matrix.
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (mapped == MAP_FAILED) {
    return Status::IoError(StrCat("mmap failed: ", path));
  }
  return MmapFile(static_cast<const uint8_t*>(mapped), size);
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

}  // namespace d2pr
