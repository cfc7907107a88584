// SingleFlightLru: a bounded least-recently-used memo whose misses are
// built at most once at a time per key.
//
// Every per-key artifact a TransitionResolver keeps — transition
// matrices, top-k degree-bound indexes, partition slices — costs an
// O(|E|) pass to build, is immutable once built, and is revisited by
// sweeps, tuners and serving traffic. This class owns the whole caching
// policy for them: MRU-first order, eviction at a fixed capacity, and
// single-flight builds. ServingRuntime replays a batch's cache trace
// over a key-only instance, so its hit flags follow the same policy by
// construction.
//
//   SingleFlightLru<TransitionKey, std::shared_ptr<const Foo>> cache(32);
//   bool hit = false;
//   auto foo = cache.GetOrBuild(key, [&] { return MakeFoo(key); }, &hit);
//
// Lookups are linear scans: capacities are tens of entries, where a scan
// beats hashing floating-point keys.
//
// Thread-safe. The build runs with no lock held, so misses on distinct
// keys build in parallel; each instance has its own mutex, so a slow
// build in one cache never stalls a lookup in another.

#ifndef D2PR_COMMON_SINGLE_FLIGHT_LRU_H_
#define D2PR_COMMON_SINGLE_FLIGHT_LRU_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"

namespace d2pr {

/// \brief LRU memo of `Value`s keyed by `Key` (equality-comparable) with
/// single-flight builds on a miss.
template <typename Key, typename Value>
class SingleFlightLru {
 public:
  /// `capacity` is the maximum number of resident entries; 0 disables
  /// caching, and with it waiting: every call builds, since a finished
  /// value could never land anywhere for a waiter to take.
  explicit SingleFlightLru(size_t capacity) : capacity_(capacity) {}

  SingleFlightLru(const SingleFlightLru&) = delete;
  SingleFlightLru& operator=(const SingleFlightLru&) = delete;

  /// \brief Returns the value cached under `key`, making it the most
  /// recently used entry; on a miss, runs `build()` and caches its value.
  ///
  /// `build` returns a Value or a Result<Value> and runs with no lock
  /// held. While one call builds a key, concurrent misses on that key
  /// wait for it and then take its entry. A failed build caches nothing
  /// and wakes the waiters; the first of them to run builds again. Each
  /// lookup counts one hit or one miss — a waiter counts its miss before
  /// waiting and its hit after. With capacity 0 nothing is looked up,
  /// counted or cached. `hit`, when non-null, reports whether the value
  /// came from the cache.
  template <typename Build>
  Result<Value> GetOrBuild(const Key& key, Build&& build,
                           bool* hit = nullptr) {
    if (hit != nullptr) *hit = false;
    if (capacity_ == 0) return build();
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        const auto it = Find(key);
        if (it != entries_.end()) {
          ++hits_;
          entries_.splice(entries_.begin(), entries_, it);
          if (hit != nullptr) *hit = true;
          return it->second;
        }
        ++misses_;
        if (!Building(key)) break;
        build_cv_.wait(lock, [&] { return !Building(key); });
      }
      building_.push_back(key);
    }
    std::optional<Result<Value>> built;
    {
      // Lands the build on every exit, a throwing build included, so
      // waiters are never left on a key nobody is building.
      Landing landing{*this, key, built};
      built.emplace(build());
    }
    return std::move(*built);
  }

  /// Resident keys, most recently used first.
  std::vector<Key> Keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Key> keys;
    keys.reserve(entries_.size());
    for (const Entry& entry : entries_) keys.push_back(entry.first);
    return keys;
  }

  /// Drops every entry (counters are kept). A build in flight still
  /// lands its value afterwards.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  size_t capacity() const { return capacity_; }
  int64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  int64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  using Entry = std::pair<Key, Value>;

  /// Releases the single-flight slot of `key` and caches a successful
  /// build as the most recently used entry, evicting from the back.
  struct Landing {
    SingleFlightLru& cache;
    const Key& key;
    const std::optional<Result<Value>>& built;

    ~Landing() {
      {
        std::lock_guard<std::mutex> lock(cache.mu_);
        std::erase(cache.building_, key);
        if (built.has_value() && built->ok()) {
          cache.entries_.emplace_front(key, built->value());
          while (cache.entries_.size() > cache.capacity_) {
            cache.entries_.pop_back();
          }
        }
      }
      cache.build_cv_.notify_all();
    }
  };

  // Callers hold mu_.
  typename std::list<Entry>::iterator Find(const Key& key) {
    return std::find_if(
        entries_.begin(), entries_.end(),
        [&key](const Entry& entry) { return entry.first == key; });
  }
  bool Building(const Key& key) const {
    return std::find(building_.begin(), building_.end(), key) !=
           building_.end();
  }

  const size_t capacity_;
  std::condition_variable build_cv_;  ///< Signalled when a build lands.
  mutable std::mutex mu_;  ///< Guards the members below.
  std::list<Entry> entries_;   ///< Front = most recently used.
  std::vector<Key> building_;  ///< Keys with a build in flight.
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace d2pr

#endif  // D2PR_COMMON_SINGLE_FLIGHT_LRU_H_
