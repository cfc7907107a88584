// Power-iteration PageRank solver over a TransitionMatrix.
//
// Solves the paper's fixed point  ~d = α·T_D·~d + (1-α)·~t  by iterating the
// recurrence until the L1 change falls below a tolerance. Dangling nodes
// (empty transition columns) are handled by a configurable policy; the
// default re-injects their mass through the teleportation vector, the
// standard stochastic completion.

#ifndef D2PR_CORE_PAGERANK_H_
#define D2PR_CORE_PAGERANK_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "core/transition.h"
#include "graph/csr_graph.h"

namespace d2pr {

/// \brief What to do with random-walk mass at nodes without out-arcs.
enum class DanglingPolicy {
  /// Redistribute dangling mass through the teleport vector (default;
  /// preserves Σ scores = 1 exactly).
  kTeleport,
  /// Dangling nodes hold their mass (behave as self-loops).
  kSelfLoop,
  /// Dangling mass is dropped and the iterate is L1-renormalized. Matches
  /// implementations that simply ignore sinks.
  kRenormalize,
};

/// \brief Solver parameters.
struct PagerankOptions {
  /// Residual probability α of following an arc; 1-α teleports. The paper
  /// varies α in [0.5, 0.9] with default 0.85.
  double alpha = 0.85;
  /// Convergence threshold on the L1 change between iterates.
  double tolerance = 1e-10;
  /// Iteration cap; the solve reports converged = false when hit.
  int max_iterations = 200;
  DanglingPolicy dangling = DanglingPolicy::kTeleport;
};

/// \brief Solver output.
struct PagerankResult {
  std::vector<double> scores;  ///< Stationary scores, Σ = 1.
  int iterations = 0;          ///< Iterations actually performed.
  bool converged = false;      ///< Whether tolerance was reached.
  double residual = 0.0;       ///< Final L1 change.
};

/// \brief Validates solver options (alpha in [0, 1), tolerance > 0,
/// max_iterations >= 1). One copy of these checks — and their message
/// strings — shared by the power, Gauss-Seidel, and block solvers.
Status ValidatePagerankOptions(const PagerankOptions& options);

/// \brief Validates a teleport vector against a node count: exact size,
/// finite non-negative entries, sum 1 within 1e-9. Shared like
/// ValidatePagerankOptions.
Status ValidateTeleportVector(std::span<const double> teleport,
                              NodeId num_nodes);

/// \brief Runs power iteration with an explicit teleport vector.
///
/// Requirements (else InvalidArgument): alpha in [0, 1); tolerance > 0;
/// max_iterations >= 1; teleport.size() == num nodes; teleport entries
/// finite, non-negative and summing to 1 (within 1e-9).
Result<PagerankResult> SolvePagerank(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     std::span<const double> teleport,
                                     const PagerankOptions& options);

/// \brief Warm-started power iteration: begins from `initial` instead of
/// the teleport vector. The fixed point is unique (the iteration is a
/// contraction for alpha < 1), so the answer is independent of the start —
/// but a nearby start (e.g. the previous point of a p-sweep) converges in
/// far fewer iterations. `initial` must be a distribution over the nodes
/// (finite, non-negative entries).
Result<PagerankResult> SolvePagerankFrom(const CsrGraph& graph,
                                         const TransitionMatrix& transition,
                                         std::span<const double> teleport,
                                         std::span<const double> initial,
                                         const PagerankOptions& options);

/// \brief Convenience overload with the uniform teleport ~t[i] = 1/|V|.
Result<PagerankResult> SolvePagerank(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     const PagerankOptions& options = {});

}  // namespace d2pr

#endif  // D2PR_CORE_PAGERANK_H_
