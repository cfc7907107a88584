// TopKSolver: bounded forward push with certified top-k set membership.
//
// Generalizes the forward local-push scheme of core/push_ppr.cc to answer
// the query products actually ask — "which k nodes rank highest?" —
// without finishing the full approximation. Three pieces:
//
//   1. The plain push itself (PushRun, core/push_ppr.h): a FIFO frontier
//      while the query is local — a node re-enters at the back, so each
//      push moves the accumulated mass of a whole neighbor generation
//      instead of slivers, where a max-heap "largest residual first"
//      order costs ~12x the pushes — and passes in node order once the
//      frontier holds |V|/64 nodes. The solver adds nothing to the
//      spread loop; it certifies between pushes.
//   2. Degree-derived score bounds (topk/degree_bound.h). The push
//      invariant  ppr(t) = scores(t) + sum_u r(u) * ppr_u(t), combined
//      with ppr_u(t) <= (1-alpha)*[t == u] + alpha * ub_in(t), certifies
//
//        scores(t)                                   <= ppr(t) <=
//        scores(t) + (1-alpha)*r(t) + alpha*R*b(t)
//
//      where R is the total residual mass and b(t) widens ub_in(t) by the
//      re-injected seed mass seed(t) on graphs with dangling nodes.
//   3. Early termination: at intervals of 256, 512, 1024, ... pushes
//      (the interval doubles after each round) the solver recomputes the
//      bounds and stops as soon as each of the current top-k candidates'
//      lower bounds clears every non-candidate's upper bound — typically
//      long before any residual reaches the epsilon floor. Never-touched
//      nodes are bounded in O(1) amortized through the index's
//      descending-by-bound order.
//
// The result reports, per entry, the certified lower/upper bound and a
// `certified` verdict, plus one aggregate `uncertainty_gap` (how far the
// best excluded node's upper bound overlaps the k-th candidate's lower
// bound; 0 when the set is fully certified) — so callers know exactly
// what is guaranteed and what is best-effort.

#ifndef D2PR_TOPK_TOPK_SOLVER_H_
#define D2PR_TOPK_TOPK_SOLVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/transition.h"
#include "graph/csr_graph.h"
#include "topk/degree_bound.h"

namespace d2pr {

/// \brief Bounded-push top-k parameters.
struct TopKOptions {
  int k = 10;              ///< Entries to return (>= 1).
  double alpha = 0.85;     ///< Residual (walk-following) probability.
  /// Residual floor: a node whose residual is at or below this is never
  /// pushed. Certification usually terminates the solve much earlier;
  /// the floor is the fallback bound on work.
  double epsilon = 1e-7;
  /// Safety cap on push operations; any value <= 0 selects
  /// DefaultPushCap(|V|) (core/push_ppr.h). Hitting the cap returns the
  /// best-effort state with completed = false.
  int64_t max_pushes = -1;
  /// Dangling-node residual handling, as in PushOptions: true re-injects
  /// through the seed distribution (DanglingPolicy::kTeleport), false
  /// drops the mass.
  bool reinject_dangling = true;
};

/// \brief One candidate of a TopKResult.
struct TopKEntry {
  NodeId node = 0;
  double lower_bound = 0.0;  ///< Certified: exact score >= this.
  double upper_bound = 0.0;  ///< Certified: exact score <= this.
  /// True when this entry provably belongs to the exact top-k (its lower
  /// bound clears every non-candidate's upper bound).
  bool certified = false;
};

/// \brief Certified-bounds top-k output.
struct TopKResult {
  /// min(k, |V|) entries, ordered by lower bound descending (ties by
  /// ascending node id).
  std::vector<TopKEntry> entries;
  /// max(0, best excluded upper bound - k-th lower bound): how much of
  /// the candidate/non-candidate boundary is still unresolved. 0 when
  /// the whole set is certified.
  double uncertainty_gap = 0.0;
  int64_t pushes = 0;
  /// Node-order passes made after the frontier went global; 0 when it
  /// stayed local.
  int64_t passes = 0;
  int64_t certification_rounds = 0;
  /// Residual mass left unpushed at termination (exactly the R of the
  /// final bound computation).
  double residual_mass = 0.0;
  bool certified = false;  ///< Every entry is certified.
  /// False only when max_pushes was exhausted before the frontier
  /// drained or certification succeeded.
  bool completed = false;
};

/// \brief Runs bounded forward push from a seed distribution until the
/// top-k set certifies, the frontier drains to the epsilon floor, or the
/// push cap is hit.
///
/// `seed` must be a probability distribution over the graph's nodes, and
/// `bounds` must have been built from this exact (graph, transition) pair
/// (the caller resolves both through one TransitionResolver key).
Result<TopKResult> SolveTopK(const CsrGraph& graph,
                             const TransitionMatrix& transition,
                             const DegreeBoundIndex& bounds,
                             std::span<const double> seed,
                             const TopKOptions& options = {});

}  // namespace d2pr

#endif  // D2PR_TOPK_TOPK_SOLVER_H_
