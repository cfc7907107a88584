// ServingRuntime: a multi-threaded batch/async serving layer over one
// thread-safe D2prEngine.
//
// The engine makes concurrent Rank calls safe; the runtime makes them
// fast and convenient for a server:
//
//   * RankBatch fans independent requests out across a fixed ThreadPool.
//     Warm-started requests are the exception: trajectory lookups and
//     stores mutate one LRU-evicting store inside the engine, so ALL
//     tagged requests of a batch run chained on one worker in submission
//     order (per-tag chains would leave the cross-tag eviction order a
//     race). That keeps the warm store's operation sequence — and with
//     the score cache disabled, every field of every response —
//     identical to the engine's sequential RankBatch on the same
//     starting state. One caveat: scores and solver diagnostics are
//     schedule-independent unconditionally, but the normalized
//     transition_cache_hit flags of *later* batches assume earlier
//     parallel batches did not overflow the engine's transition cache
//     (more distinct keys per batch than transition_cache_capacity
//     makes the surviving resident set schedule-dependent).
//   * RankAsync hands back a std::future or calls a completion callback,
//     so a server can overlap solves with IO and send replies as they
//     complete.
//   * A ScoreCache memoizes full responses keyed by the entire request,
//     so repeated identical queries skip the solve outright. Warm-started
//     requests bypass it (their responses depend on trajectory state).
//     Both RankAsync forms probe it on the caller's thread first: a hit
//     is answered there, before RankAsync returns, and never waits for
//     or occupies a worker.
//
// This is the one in-process serving path: more engines per process
// would cost one transition build and matrix per engine per key and add
// no concurrency, since D2prEngine::Rank blocks other queries only on a
// shared transition build. A graph split across processes is served by
// the shard fleet (dist/coordinator.h).
//
// One runtime per engine per process is the intended shape:
//
//   D2prEngine engine(std::move(graph));
//   ServingRuntime runtime = ServingRuntime::Borrowing(
//       engine, {.num_threads = 4});
//   auto responses = runtime.RankBatch(requests);       // parallel
//   auto future = runtime.RankAsync(request);           // overlap with IO
//   RankResponse reply = future.get().value();

#ifndef D2PR_SERVE_SERVING_RUNTIME_H_
#define D2PR_SERVE_SERVING_RUNTIME_H_

#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/rank_request.h"
#include "common/result.h"
#include "serve/score_cache.h"
#include "serve/thread_pool.h"

namespace d2pr {

/// \brief ServingRuntime construction knobs.
struct ServingOptions {
  /// Worker threads in the pool (0 is clamped to 1).
  size_t num_threads = 4;
  /// Response memo entry budget; 0 disables the memo.
  size_t score_cache_capacity = 256;
};

/// \brief Thread-pool batch/async execution plus response memoization
/// over a shared D2prEngine.
class ServingRuntime {
 public:
  /// Shares ownership of `engine`.
  explicit ServingRuntime(std::shared_ptr<D2prEngine> engine,
                          const ServingOptions& options = {});

  /// Borrows `engine`; the caller keeps it alive for the runtime's
  /// lifetime (the pattern tools and tests use for stack engines).
  static ServingRuntime Borrowing(D2prEngine& engine,
                                  const ServingOptions& options = {});

  D2prEngine& engine() { return *engine_; }
  const ScoreCache& score_cache() const { return score_cache_; }
  size_t num_threads() const { return pool_.num_threads(); }

  /// \brief One query through the score cache, on the caller's thread.
  Result<RankResponse> Rank(const RankRequest& request);

  /// \brief Executes `requests` on the worker pool and returns their
  /// responses in request order.
  ///
  /// Independent requests run concurrently; warm-started requests run
  /// sequentially in submission order relative to each other, so
  /// trajectories (and the warm store's eviction order) stay as the
  /// sequential path would leave them. Cache-hit diagnostics on the
  /// responses are normalized to the sequential reference execution
  /// (see RankBatch determinism note in the file comment). On failure,
  /// returns the error of the lowest-index failing request — the same
  /// status the fail-fast sequential path reports; side effects of
  /// later requests (caches, warm stores) are unspecified in that case.
  Result<std::vector<RankResponse>> RankBatch(
      std::span<const RankRequest> requests);

  /// \brief Enqueues one query and immediately returns its future.
  ///
  /// The future form of the callback RankAsync below: a memo hit's future
  /// is ready on return. Warm-started async requests are legal but their
  /// trajectory order is whatever the pool happens to run; serialize via
  /// RankBatch (or one tag per in-flight request) when order matters.
  std::future<Result<RankResponse>> RankAsync(RankRequest request);

  /// \brief Answers one query from the memo, or enqueues it; `done`
  /// receives the result.
  ///
  /// The completion-queue form: instead of parking a thread per request
  /// on future.get(), a server hands in a callback that sends the result
  /// itself — N in-flight requests cost zero waiting threads (see
  /// net/server.h). The memo is probed on the caller's thread first. On
  /// a hit, `gate` and then `done` run right there, before RankAsync
  /// returns: no worker is involved. Anything else (a miss, a key another
  /// call is solving, a warm-started request) goes to the pool, where
  /// `gate` and `done` run on the worker that takes it. Either way `done`
  /// must not block for long, must not call back into this runtime's
  /// batch surface, and must not need a lock its caller holds.
  ///
  /// A non-null `gate` runs once, immediately before the solve or the
  /// memo copy; returning non-OK skips both and delivers that status to
  /// `done`. This is the deadline hook: a request whose deadline expired
  /// while queued is rejected at the last responsible moment without the
  /// engine ever seeing it. A rejected call counts no memo lookup.
  void RankAsync(RankRequest request,
                 std::function<void(Result<RankResponse>)> done,
                 std::function<Status()> gate = nullptr);

  /// The worker pool, exposed so an admission-control layer (net/server.h)
  /// can read queue_depth() to shed load before enqueueing, and so tests
  /// can park workers deterministically.
  ThreadPool& pool() { return pool_; }

 private:
  /// The memo key of `request`; empty when the request is not memoizable
  /// (memo disabled or a warm-start tag).
  std::string MemoKey(const RankRequest& request) const;

  /// Score-cache-aware single execution; `key` is MemoKey(request). When
  /// `expected_cache_hit` is set, the response's transition_cache_hit
  /// flag is overwritten with the sequential-reference value (batch
  /// determinism).
  Result<RankResponse> Execute(const RankRequest& request,
                               const std::string& key,
                               std::optional<bool> expected_cache_hit);

  /// Replays the engine's LRU transition cache over `requests` in
  /// sequence, starting from its current contents, and returns the
  /// hit/miss flag each request would see on the sequential path.
  std::vector<bool> SimulateSequentialCacheHits(
      std::span<const RankRequest> requests) const;

  std::shared_ptr<D2prEngine> engine_;
  ScoreCache score_cache_;

  /// Single-flight for cacheable queries: guards inflight_keys_, the
  /// score-cache keys currently being solved. Concurrent identical
  /// requests wait for the first solve and take the memo hit instead of
  /// duplicating the full solve (the engine only deduplicates the
  /// transition build, not the iteration).
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::vector<std::string> inflight_keys_;

  ThreadPool pool_;  // last member: workers must die before state above
};

}  // namespace d2pr

#endif  // D2PR_SERVE_SERVING_RUNTIME_H_
