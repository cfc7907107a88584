// D2prEngine: the serving facade of the library.
//
// The paper's methodology — and any production deployment of it — is many
// solves over one graph: sweeps of p, alpha, and beta, auto-tuning probes,
// and per-user personalized queries. The engine is constructed once per
// graph and amortizes everything that does not depend on the individual
// query:
//
//   * the CsrGraph itself (owned or borrowed),
//   * an LRU cache of TransitionMatrix instances keyed by (p, beta,
//     metric) — the dominant per-query setup cost,
//   * optionally, a persistent transition store (EngineOptions::cache_dir):
//     built matrices spill to disk in a versioned, checksummed format and
//     a restarted engine maps them back instead of rebuilding — see
//     api/transition_store.h,
//   * a warm-start store: previous solutions, keyed by caller-chosen tag,
//     reused (with linear extrapolation along a parameter trajectory) as
//     starting iterates for nearby queries (the tuner's probes, tagged
//     wire requests),
//   * the uniform teleportation vector.
//
// Queries go through one RankRequest / RankResponse pair regardless of
// solver (power iteration, Gauss-Seidel, forward push) and personalization
// (global or seeded). RankBatch solves runs of untagged power requests
// (a sweep's grid) in batched passes over the arcs. Cumulative
// EngineStats counters expose build/hit/iteration accounting for
// telemetry and efficiency tests.
//
//   CsrGraph graph = ...;
//   D2prEngine engine(std::move(graph));
//   auto response = engine.Rank({.p = 0.5, .alpha = 0.85});
//   if (response.ok()) use(response->scores);
//
// The legacy free functions (ComputeD2pr, SweepP, TuneDecouplingWeight,
// ...) are thin wrappers over a borrowing engine, so all call sites share
// one code path.
//
// Thread-safety: a single engine instance can back any number of threads
// calling Rank / RankBatch / stats() concurrently.
//
//   * The transition cache is mutex-guarded, and concurrent misses on the
//     same key are single-flighted: one thread builds the O(|E|) matrix
//     while the others wait on it, so a key is never built twice.
//   * The warm-start store is mutex-guarded. Lookups and stores are
//     atomic per call, but the *ordering* of a trajectory is defined by
//     call order: callers who share a tag across threads must serialize
//     those calls themselves (ServingRuntime chains a batch's tagged
//     requests onto one worker for exactly this reason).
//   * EngineStats counters are atomic — each counter is exact under
//     concurrency; copy the struct for a point-in-time snapshot.
//
// Rank() itself never blocks on other queries except when waiting for a
// shared transition build. For a multi-threaded batch runtime with
// futures and a response memo on top of this engine, see
// serve/serving_runtime.h.

#ifndef D2PR_API_ENGINE_H_
#define D2PR_API_ENGINE_H_

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/rank_request.h"
#include "api/transition_resolver.h"
#include "common/result.h"
#include "core/d2pr.h"
#include "core/transition.h"
#include "graph/csr_graph.h"

namespace d2pr {

// EngineOptions, the engine's construction knobs, live in
// api/transition_resolver.h with the resolver they configure.

/// \brief One-per-graph ranking engine with cached transitions, warm
/// starts, and pluggable solvers.
class D2prEngine {
 public:
  /// Takes ownership of `graph`.
  explicit D2prEngine(CsrGraph graph, const EngineOptions& options = {});

  /// Shares ownership of an already-managed graph.
  explicit D2prEngine(std::shared_ptr<const CsrGraph> graph,
                      const EngineOptions& options = {});

  /// Borrows `graph` without copying it. The caller must keep `graph`
  /// alive for the engine's lifetime — the pattern the legacy free
  /// functions use for their call-scoped engines.
  static D2prEngine Borrowing(const CsrGraph& graph,
                              const EngineOptions& options = {});

  const CsrGraph& graph() const { return *graph_; }
  const EngineOptions& options() const { return options_; }

  /// Cumulative counters since construction or the last ResetStats().
  /// Individual counters read atomically; copy for a consistent snapshot.
  const EngineStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EngineStats{}; }

  /// Drops cached transitions and warm-start solutions (counters are
  /// kept; pair with ResetStats() for a full reset).
  void ClearCaches();

  /// \brief Executes one ranking query.
  ///
  /// Returns InvalidArgument for parameter errors (propagated from the
  /// transition builder and solvers: beta outside [0, 1], alpha outside
  /// [0, 1), bad seeds, ...).
  Result<RankResponse> Rank(const RankRequest& request);

  /// \brief Executes queries in order, failing fast on the first error.
  ///
  /// A run of two or more consecutive power requests without a
  /// warm-start tag and with the same seed list (the shape of a sweep)
  /// is solved by SolvePagerankBatch: one pass over the arcs per
  /// iteration for up to kMaxBatchColumns requests. Each response is
  /// still bit-identical to its own Rank() call. Every other request
  /// runs through Rank() itself.
  ///
  /// Each request is validated and its transition resolved in request
  /// order, so requests see each other's cache and warm-start effects in
  /// order, and on success the responses and EngineStats equal those of
  /// the same sequence of Rank() calls. On failure the first failing
  /// request's Status comes back; the batched requests before it are
  /// then left unsolved, so solver_iterations does not count them.
  Result<std::vector<RankResponse>> RankBatch(
      std::span<const RankRequest> requests);

  /// \brief Drops the stored trajectory under `tag` (no-op when absent).
  ///
  /// The tuner calls this before its first probe so a re-run does not
  /// warm-start p_min from the far end (p_max) of the previous run.
  void ForgetWarmStart(const std::string& tag);

  /// \brief The resolved transition-cache key `request` maps to: beta
  /// folded to 0 on unweighted graphs, kAuto metric resolved.
  ///
  /// Exposed so ServingRuntime can replay the sequential LRU trace of a
  /// batch (deterministic cache-hit diagnostics) without executing it.
  TransitionKey ResolveKey(const RankRequest& request) const;

  /// \brief The transition resolver behind this engine: its matrix
  /// cache (resident keys, most recently used first, and the raw lookup
  /// counters), top-k bound and store counters. ServingRuntime seeds its
  /// replay of a batch's cache trace from CachedKeys().
  const TransitionResolver& transition_resolver() const { return resolver_; }

 private:
  /// The last two solutions of one warm-start trajectory, newest first.
  struct WarmSnapshot {
    double p = 0.0;
    double beta = 0.0;
    double alpha = 0.0;
    DegreeMetric metric = DegreeMetric::kOutDegree;
    DanglingPolicy dangling = DanglingPolicy::kTeleport;
    std::vector<NodeId> seeds;
    std::vector<double> scores;
  };
  struct WarmEntry {
    std::string tag;
    std::vector<WarmSnapshot> snapshots;  // size <= 2, newest first
  };

  /// Returns the transition for `key` via the shared TransitionResolver
  /// (cache, else persistent store, else build — single-flighted), and
  /// folds the resolve outcome into this engine's EngineStats counters.
  Result<std::shared_ptr<const TransitionMatrix>> GetTransition(
      const TransitionKey& key, bool* cache_hit, bool* store_hit);

  /// The teleport vector `request` solves under: the engine's uniform
  /// vector when unseeded, else SeededTeleport's, built into *seeded.
  Result<std::span<const double>> TeleportFor(const RankRequest& request,
                                              std::vector<double>* seeded);

  /// Moves an exact (power or Gauss-Seidel) solve into `response` and
  /// counts its iterations; truncates to request.top_k when asked.
  void FinishExactResponse(const RankRequest& request, PagerankResult solved,
                           RankResponse* response);

  /// RankBatch's batched run: requests that all satisfy its grouping
  /// rule, solved by one SolvePagerankBatch call; appends one response
  /// per request.
  Status RankPowerRun(std::span<const RankRequest> run,
                      std::vector<RankResponse>* responses);

  /// Returns the starting iterate for a power solve under `request`, or an
  /// empty vector when no compatible warm start exists. When two
  /// compatible snapshots differ in exactly one of (p, beta, alpha), the
  /// start is linearly extrapolated along that coordinate toward the
  /// requested value, which typically saves further iterations over
  /// restarting from the most recent solution alone.
  std::vector<double> WarmStartFor(const RankRequest& request,
                                   const TransitionKey& key);

  /// Records `scores` as the newest snapshot under the request's tag.
  void StoreWarmStart(const RankRequest& request, const TransitionKey& key,
                      const std::vector<double>& scores);

  /// Finds the trajectory stored under `tag`, refreshing its LRU recency;
  /// warm_entries_.end() when absent. Caller must hold warm_mu_.
  std::list<WarmEntry>::iterator FindWarmEntry(const std::string& tag);

  /// The uniform teleport vector, built on first use (immutable after).
  std::span<const double> UniformTeleportVector();

  std::shared_ptr<const CsrGraph> graph_;
  EngineOptions options_;
  /// Cache + persistent store + single-flight build resolution.
  TransitionResolver resolver_;

  std::mutex warm_mu_;                 ///< Guards warm_entries_.
  std::list<WarmEntry> warm_entries_;  // front = most recently used

  std::once_flag uniform_teleport_once_;
  std::vector<double> uniform_teleport_;

  EngineStats stats_;
};

/// \brief Translates the legacy one-shot options into a RankRequest
/// (uniform teleport, power iteration, no warm start).
RankRequest ToRankRequest(const D2prOptions& options);

/// \brief Converts an engine response into the legacy solver result type,
/// dropping the engine-only diagnostics.
PagerankResult ToPagerankResult(RankResponse response);

}  // namespace d2pr

#endif  // D2PR_API_ENGINE_H_
