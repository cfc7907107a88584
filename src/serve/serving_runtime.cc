#include "serve/serving_runtime.h"

#include <algorithm>
#include <latch>
#include <mutex>
#include <utility>
#include <variant>

#include "common/single_flight_lru.h"

namespace d2pr {

ServingRuntime::ServingRuntime(std::shared_ptr<D2prEngine> engine,
                               const ServingOptions& options)
    : engine_(std::move(engine)),
      score_cache_(options.score_cache_capacity),
      pool_(options.num_threads) {}

ServingRuntime ServingRuntime::Borrowing(D2prEngine& engine,
                                         const ServingOptions& options) {
  return ServingRuntime(
      std::shared_ptr<D2prEngine>(&engine, [](D2prEngine*) {}), options);
}

Result<RankResponse> ServingRuntime::Rank(const RankRequest& request) {
  return Execute(request, MemoKey(request), std::nullopt);
}

std::string ServingRuntime::MemoKey(const RankRequest& request) const {
  // Warm-started requests depend on (and advance) per-tag trajectory
  // state, so their responses are not memoizable.
  if (!score_cache_.enabled() || !request.warm_start_tag.empty()) return {};
  return ScoreCache::KeyFor(request);
}

Result<RankResponse> ServingRuntime::Execute(
    const RankRequest& request, const std::string& key,
    std::optional<bool> expected_cache_hit) {
  const bool cacheable = !key.empty();
  if (cacheable) {
    auto from_memo =
        [&expected_cache_hit](RankResponse memo) -> RankResponse {
      if (expected_cache_hit) {
        memo.transition_cache_hit = *expected_cache_hit;
      }
      return memo;
    };
    // Single-flight: if an identical query is already solving, wait for
    // it and take the memo hit instead of duplicating the full solve.
    // A call may look up the memo more than once (it can lose the race
    // to register), so lookups count only hits, and the call that goes on
    // to solve counts its one miss: hits + misses = cacheable calls, and
    // misses = solves. The O(num_nodes) memo copy always happens with
    // inflight_mu_ released.
    std::unique_lock<std::mutex> lock(inflight_mu_);
    for (;;) {
      if (std::find(inflight_keys_.begin(), inflight_keys_.end(), key) !=
          inflight_keys_.end()) {
        inflight_cv_.wait(lock);
        continue;
      }
      lock.unlock();
      // The solver inserts before deregistering, so waiters hit here; a
      // miss means no solver, a failed solve, or an eviction — solve.
      if (std::optional<RankResponse> memo = score_cache_.Lookup(key)) {
        return from_memo(std::move(*memo));
      }
      lock.lock();
      if (std::find(inflight_keys_.begin(), inflight_keys_.end(), key) ==
          inflight_keys_.end()) {
        inflight_keys_.push_back(key);
        score_cache_.CountMiss();
        break;
      }
      // Raced with a thread that registered during our probe: wait.
    }
  }

  Result<RankResponse> response = engine_->Rank(request);

  if (cacheable) {
    // The memo stores the response as the engine produced it; the
    // normalized diagnostic below applies only to this batch's copy.
    if (response.ok()) score_cache_.Insert(key, *response);
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      std::erase(inflight_keys_, key);
    }
    inflight_cv_.notify_all();
  }
  if (!response.ok()) return response;
  if (expected_cache_hit) {
    response->transition_cache_hit = *expected_cache_hit;
  }
  return response;
}

std::vector<bool> ServingRuntime::SimulateSequentialCacheHits(
    std::span<const RankRequest> requests) const {
  // Concurrent execution makes the engine's real hit/miss interleaving a
  // race outcome; replaying the batch over a key-only instance of the
  // engine's own cache policy (cheap: keys, not matrices) pins every
  // response's transition_cache_hit flag to the deterministic sequential
  // value.
  SingleFlightLru<TransitionKey, std::monostate> lru(
      engine_->options().transition_cache_capacity);
  const auto no_value = [] { return std::monostate{}; };
  // CachedKeys() is most recently used first: seed from the back so the
  // replay starts in the real cache's recency order.
  const std::vector<TransitionKey> resident =
      engine_->transition_resolver().CachedKeys();
  for (auto it = resident.rbegin(); it != resident.rend(); ++it) {
    lru.GetOrBuild(*it, no_value);
  }

  std::vector<bool> hits(requests.size(), false);
  for (size_t i = 0; i < requests.size(); ++i) {
    bool hit = false;
    lru.GetOrBuild(engine_->ResolveKey(requests[i]), no_value, &hit);
    hits[i] = hit;
  }
  return hits;
}

Result<std::vector<RankResponse>> ServingRuntime::RankBatch(
    std::span<const RankRequest> requests) {
  std::vector<RankResponse> responses(requests.size());
  if (requests.empty()) return responses;

  const std::vector<bool> expected_hits =
      SimulateSequentialCacheHits(requests);

  // Group request indices into execution chains: every untagged request
  // is its own chain; ALL tagged requests form one chain in submission
  // order. One chain per tag would keep each trajectory ordered, but the
  // warm store is a shared LRU — with more tags than its capacity the
  // eviction order across concurrent chains would be a race, and a
  // trajectory the sequential path keeps could get dropped mid-batch.
  std::vector<std::vector<size_t>> chains;
  std::vector<size_t> tagged;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].warm_start_tag.empty()) {
      chains.push_back({i});
    } else {
      tagged.push_back(i);
    }
  }
  if (!tagged.empty()) chains.push_back(std::move(tagged));

  std::mutex error_mu;
  size_t first_error_index = requests.size();
  Status first_error = Status::OK();

  std::latch done(static_cast<ptrdiff_t>(chains.size()));
  for (std::vector<size_t>& chain : chains) {
    pool_.Submit([this, &requests, &responses, &expected_hits, &error_mu,
                  &first_error_index, &first_error, &done,
                  chain = std::move(chain)] {
      // RAII tick: the pool contains task exceptions, so a throw past
      // a plain trailing count_down() would strand done.wait() forever.
      struct Tick {
        std::latch& latch;
        ~Tick() { latch.count_down(); }
      } tick{done};
      for (size_t index : chain) {
        Result<RankResponse> response = Execute(
            requests[index], MemoKey(requests[index]), expected_hits[index]);
        if (!response.ok()) {
          // Mirror the sequential fail-fast error: of all failing
          // requests, the lowest index wins; the rest of this chain
          // would never have run, so stop it.
          std::lock_guard<std::mutex> lock(error_mu);
          if (index < first_error_index) {
            first_error_index = index;
            first_error = response.status();
          }
          break;
        }
        responses[index] = std::move(response).value();
      }
    });
  }
  done.wait();

  if (first_error_index < requests.size()) return first_error;
  return responses;
}

std::future<Result<RankResponse>> ServingRuntime::RankAsync(
    RankRequest request) {
  auto promise = std::make_shared<std::promise<Result<RankResponse>>>();
  std::future<Result<RankResponse>> future = promise->get_future();
  RankAsync(std::move(request), [promise](Result<RankResponse> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

void ServingRuntime::RankAsync(RankRequest request,
                               std::function<void(Result<RankResponse>)> done,
                               std::function<Status()> gate) {
  std::string key = MemoKey(request);
  // Memo first, on the caller's thread: a hit needs no worker. The gate
  // runs only once the memo is known to hold the key, so a miss is still
  // gated on the worker right before its solve, and a rejected call
  // counts no lookup, as on the worker.
  if (!key.empty() && score_cache_.Contains(key)) {
    if (gate) {
      Status admitted = gate();
      if (!admitted.ok()) {
        done(std::move(admitted));
        return;
      }
      gate = nullptr;  // admitted: an eviction race below must not re-gate
    }
    if (std::optional<RankResponse> memo = score_cache_.Lookup(key)) {
      done(std::move(*memo));
      return;
    }
  }
  pool_.Submit([this, request = std::move(request), key = std::move(key),
                done = std::move(done), gate = std::move(gate)]() mutable {
    if (gate) {
      Status admitted = gate();
      if (!admitted.ok()) {
        done(std::move(admitted));
        return;
      }
    }
    done(Execute(request, key, std::nullopt));
  });
}

}  // namespace d2pr
