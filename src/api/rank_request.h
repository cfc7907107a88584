// The serving vocabulary of the D2PR engine: one request struct in, one
// response struct out, for every ranking variant the library implements.
//
// A RankRequest bundles the transition knobs (p, beta, metric), the solver
// knobs (alpha, tolerance, iteration caps), the solver method, and the
// query context (personalization seeds, warm-start tag). A RankResponse
// carries the scores plus the convergence and cache diagnostics a serving
// layer needs for observability.

#ifndef D2PR_API_RANK_REQUEST_H_
#define D2PR_API_RANK_REQUEST_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/pagerank.h"
#include "core/transition.h"
#include "graph/types.h"

namespace d2pr {

/// \brief Which solver executes a RankRequest.
enum class SolverMethod {
  /// Jacobi-style power iteration (default; iterates stay distributions
  /// and warm starts are supported).
  kPower,
  /// Gauss-Seidel sweeps: typically ~half the iterations of power
  /// iteration at the same per-sweep cost.
  kGaussSeidel,
  /// Forward local push: approximate, output-sensitive; the right choice
  /// for per-query personalized rankings on large graphs.
  kForwardPush,
};

/// \brief Human-readable solver name ("power", "gauss-seidel",
/// "forward-push").
const char* SolverMethodName(SolverMethod method);

struct RankRequest;

/// \brief Validates a request's parameters (p finite, beta in [0, 1],
/// alpha in [0, 1), then the active solver's knobs) with the exact
/// checks and messages D2prEngine::Rank applies before touching its
/// caches, so a rejected request never pays a transition build.
Status ValidateRankRequestParameters(const RankRequest& request);

/// \brief One ranking query against a D2prEngine.
struct RankRequest {
  // --- transition model (cache key) ---
  /// Degree de-coupling weight (the paper's p).
  double p = 0.0;
  /// Connection-strength blend on weighted graphs (the paper's β).
  double beta = 0.0;
  /// Which destination quantity is raised to -p.
  DegreeMetric metric = DegreeMetric::kAuto;

  // --- solver ---
  double alpha = 0.85;       ///< Residual probability (the paper's α).
  double tolerance = 1e-10;  ///< L1 convergence threshold (power / GS).
  int max_iterations = 200;  ///< Iteration cap (power / GS).
  DanglingPolicy dangling = DanglingPolicy::kTeleport;
  SolverMethod method = SolverMethod::kPower;
  /// Per-node residual threshold for kForwardPush (ignored otherwise).
  double push_epsilon = 1e-7;

  // --- query context ---
  /// Personalization seeds; empty = uniform teleportation (global rank).
  std::vector<NodeId> seeds;
  /// 0 (the default) = exact serving: the response carries the full
  /// score vector, unchanged behavior. > 0 = truncated serving: the
  /// response carries only the top_k best entries (RankResponse::top)
  /// and an empty score vector. Under kForwardPush the engine runs the
  /// degree-pruned bounded-push TopKSolver (topk/topk_solver.h) with
  /// certified set membership; exact solvers (power / Gauss-Seidel)
  /// solve fully and truncate, so every entry is certified. Negative
  /// values are InvalidArgument.
  int top_k = 0;
  /// Non-empty: the engine warm-starts this solve from the previous
  /// solution stored under the same tag (power iteration only) and stores
  /// the new solution back. Sweeps and tuners use one tag per trajectory.
  std::string warm_start_tag;
};

/// \brief One node of a truncated (top-k) response.
struct RankedEntry {
  NodeId node = 0;
  /// The served score: a certified lower bound under bounded push, the
  /// exact stationary score under power / Gauss-Seidel.
  double score = 0.0;
  /// True when this node provably belongs to the exact top-k (always
  /// true for exact-solver truncation; bound-certified for push).
  bool certified = false;

  bool operator==(const RankedEntry&) const = default;
};

/// \brief Selects the top_k best entries of a full score vector of exact
/// scores: min(top_k, |scores|) entries, score descending with ties by
/// ascending node id, each certified (an exact score is its own bound).
std::vector<RankedEntry> TruncateToTopK(std::span<const double> scores,
                                        int top_k);

/// \brief Scores plus diagnostics for one RankRequest.
struct RankResponse {
  /// Stationary (or push-estimate) scores; EMPTY for truncated (top_k)
  /// responses, whose payload is `top` instead.
  std::vector<double> scores;
  /// Truncated top-k entries (top_k > 0 only), best first.
  std::vector<RankedEntry> top;
  /// Certification slack of a truncated response: how far the best
  /// excluded node's upper bound overlaps the k-th served score. 0 when
  /// the whole set is certified (exact truncation always is).
  double uncertainty_gap = 0.0;
  /// True when this response was served truncated (request.top_k > 0);
  /// `scores` is empty and `top` is the payload.
  bool truncated = false;
  SolverMethod method = SolverMethod::kPower;  ///< Solver that ran.
  int iterations = 0;      ///< Iterations performed (power / GS).
  int64_t pushes = 0;      ///< Push operations performed (forward push).
  bool converged = false;  ///< Tolerance reached / push completed.
  double residual = 0.0;   ///< Final L1 change (power / GS).
  bool transition_cache_hit = false;  ///< Transition served from cache.
  /// Transition mapped from the persistent store (a build was skipped).
  /// As reported by D2prEngine this is mutually exclusive with
  /// transition_cache_hit; ServingRuntime normalizes transition_cache_hit
  /// to the sequential reference trace but leaves this flag as executed,
  /// so a normalized response can carry both.
  bool transition_store_hit = false;
  bool warm_start_hit = false;        ///< Solve started from a stored
                                      ///< (possibly extrapolated) iterate.
  /// Wire flag bit 4, kept decodable because the golden fixtures pin
  /// it. No backend sets it: every in-process answer is a whole-graph
  /// solve.
  bool served_partitioned = false;
};

/// \brief Cumulative per-engine counters, exposed for serving telemetry
/// and asserted on by efficiency tests.
///
/// Counters are atomic so one engine can back many worker threads without
/// losing increments; each counter is individually exact under concurrent
/// Rank calls. Reading several counters is not one consistent snapshot —
/// copy the struct (an atomic-load per field) when a point-in-time view
/// matters.
struct EngineStats {
  std::atomic<int64_t> requests{0};  ///< RankRequests executed (ok or not).
  std::atomic<int64_t> transition_builds{
      0};  ///< TransitionMatrix::Build invocations.
  std::atomic<int64_t> transition_cache_hits{0};
  /// Matrices mapped in from the persistent store (each replaced a
  /// transition_builds increment).
  std::atomic<int64_t> transition_store_loads{0};
  /// Matrices successfully spilled to the persistent store.
  std::atomic<int64_t> transition_store_saves{0};
  std::atomic<int64_t> warm_start_hits{0};
  std::atomic<int64_t> solver_iterations{
      0};  ///< Summed power / Gauss-Seidel iterations.
  std::atomic<int64_t> push_operations{
      0};  ///< Summed forward-push operations.

  EngineStats() = default;
  // Atomics are not copyable; snapshot semantics (field-wise loads) keep
  // `EngineStats stats = engine.stats();` working for telemetry readers.
  EngineStats(const EngineStats& other) { *this = other; }
  EngineStats& operator=(const EngineStats& other) {
    requests.store(other.requests.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    transition_builds.store(
        other.transition_builds.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    transition_cache_hits.store(
        other.transition_cache_hits.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    transition_store_loads.store(
        other.transition_store_loads.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    transition_store_saves.store(
        other.transition_store_saves.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    warm_start_hits.store(other.warm_start_hits.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    solver_iterations.store(
        other.solver_iterations.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    push_operations.store(other.push_operations.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    return *this;
  }
};

}  // namespace d2pr

#endif  // D2PR_API_RANK_REQUEST_H_
