// Power-iteration PageRank solver over a TransitionMatrix.
//
// Solves the paper's fixed point  ~d = α·T_D·~d + (1-α)·~t  by iterating the
// recurrence until the L1 change falls below a tolerance. Dangling nodes
// (empty transition columns) are handled by a configurable policy; the
// default re-injects their mass through the teleportation vector, the
// standard stochastic completion. Each iteration gathers every
// destination's in-row (core/transition_kernel.h): an undirected graph's
// out-rows serve as its in-rows, a directed graph is transposed once per
// solve call. SolvePagerankBatch solves several transitions of one graph
// in one pass over the arcs per iteration; a single solve is its
// one-column case.

#ifndef D2PR_CORE_PAGERANK_H_
#define D2PR_CORE_PAGERANK_H_

#include <cstddef>
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

/// \brief The widest group one batched kernel pass carries. The width is a
/// template parameter of the kernel (a runtime-width loop gives up much of
/// the gain), and each column of a group adds three |V|-sized rows (the
/// iterate, the next iterate and the per-source products), plus one for
/// the β blend's products and one for the sink term's signed scale when a
/// column of the group has them, so the cap bounds a batch's extra
/// memory. A solve call on a directed graph also holds its transpose
/// while it runs: (|V| + 1) · 8 + |E| · 4 bytes, plus |E| · 8 when
/// weighted.
inline constexpr size_t kMaxBatchColumns = 6;

/// \brief One column of a batched solve: a transition over the batch's
/// graph and the options to solve it under.
struct PagerankColumn {
  const TransitionMatrix* transition = nullptr;  ///< Must be non-null.
  PagerankOptions options;
};

/// \brief Power iteration for many transitions over one graph and one
/// teleport vector, every column started cold from the teleport vector.
///
/// K columns run in ceil(K / kMaxBatchColumns) contiguous groups of
/// near-equal size (17 -> 6/6/5). A group keeps a row-major iterate,
/// x[v * width + k], and each iteration makes one pass over the in-rows
/// for all of its live columns; the in-rows are decided once per call. A
/// column leaves its group when it converges or reaches its
/// max_iterations. Every column keeps the operation order of
/// SolvePagerankFrom (SolvePagerankFrom is the width-1 case of the same
/// kernel), so results[k] is bit-identical —
/// scores, iterations, converged and residual — to
/// SolvePagerank(graph, *columns[k].transition, teleport,
/// columns[k].options).
///
/// Errors: the Status SolvePagerank returns for the first column whose
/// own solve would fail.
Result<std::vector<PagerankResult>> SolvePagerankBatch(
    const CsrGraph& graph, std::span<const PagerankColumn> columns,
    std::span<const double> teleport);

/// \brief Convenience overload with the uniform teleport ~t[i] = 1/|V|.
Result<PagerankResult> SolvePagerank(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     const PagerankOptions& options = {});

}  // namespace d2pr

#endif  // D2PR_CORE_PAGERANK_H_
