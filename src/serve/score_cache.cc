#include "serve/score_cache.h"

#include <utility>

#include "common/string_util.h"

namespace d2pr {

ScoreCache::ScoreCache(size_t capacity) : capacity_(capacity) {}

std::string ScoreCache::KeyFor(const RankRequest& request) {
  // '|' separates fields, ',' separates seeds; doubles are serialized at
  // full precision so distinct parameters never collide.
  std::string key = StrCat(
      FormatGeneral(request.p, 17), "|", FormatGeneral(request.beta, 17), "|",
      static_cast<int>(request.metric), "|",
      FormatGeneral(request.alpha, 17), "|",
      FormatGeneral(request.tolerance, 17), "|", request.max_iterations, "|",
      static_cast<int>(request.dangling), "|",
      static_cast<int>(request.method), "|",
      FormatGeneral(request.push_epsilon, 17), "|", request.top_k, "|");
  for (NodeId seed : request.seeds) key += StrCat(seed, ",");
  return key;
}

void ScoreCache::EvictOne() {
  // LFU scan: budgets are small (hundreds of entries) and insertions are
  // amortized behind full solves, so O(n) beats maintaining a
  // frequency-ordered index.
  auto victim = entries_.begin();
  for (auto candidate = entries_.begin(); candidate != entries_.end();
       ++candidate) {
    const Entry& c = candidate->second;
    const Entry& v = victim->second;
    if (c.uses < v.uses || (c.uses == v.uses && c.sequence < v.sequence)) {
      victim = candidate;
    }
  }
  entries_.erase(victim);
  ++stats_.evictions;
}

std::optional<RankResponse> ScoreCache::Lookup(const std::string& key) {
  std::shared_ptr<const RankResponse> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    ++it->second.uses;
    ++stats_.hits;
    found = it->second.response;
  }
  // The O(num_nodes) score copy happens outside the mutex.
  return *found;
}

void ScoreCache::CountMiss() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
}

bool ScoreCache::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.contains(key);
}

void ScoreCache::Insert(const std::string& key, RankResponse response) {
  if (!enabled()) return;
  auto shared = std::make_shared<const RankResponse>(std::move(response));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh: new payload; the use count carries over so a hot entry
    // does not become an eviction candidate on refresh.
    it->second.response = std::move(shared);
    ++stats_.insertions;
    return;
  }
  while (entries_.size() >= capacity_) EvictOne();

  Entry entry;
  entry.response = std::move(shared);
  entry.sequence = next_sequence_++;
  entries_.emplace(key, std::move(entry));
  ++stats_.insertions;
}

ScoreCacheStats ScoreCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ScoreCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace d2pr
