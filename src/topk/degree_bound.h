// DegreeBoundIndex: per-node upper bounds on transition in-probabilities,
// the degree statistic behind certified top-k pruning.
//
// The paper's central observation is that a node's significance is tightly
// coupled to its degree through the transition model: every column of the
// de-coupled transition matrix T assigns destination t a probability
// proportional to m(t)^-p (its metric raised to -p), T(t, u) = c_u·u_t in
// the factored form (core/transition.h), so the largest probability any
// single arc can deliver into t,
//
//   ub_in(t) = max over arcs (u -> t) of T(t, u) = u_t · max c_u,
//
// is a pure function of the degree structure — computable in one O(|E|)
// pass, once per (graph, p, beta, metric), independent of the query seed.
// TopKSolver (topk_solver.h) turns this into a certified score bound: any
// residual mass R still unpushed can contribute at most alpha * R * ub_in(t)
// to node t's final score, because a random-walk step concentrates at most
// ub_in(t) of any distribution's mass onto t. Nodes whose bound is too
// small to ever reach the running k-th best score are pruned without being
// touched, which is what makes bounded local push terminate early.
//
// The index also stores every node ordered by descending ub_in, so the
// solver can bound the best never-touched node by reading a sorted prefix
// instead of scanning all |V| nodes each certification round.
//
// Seed independence is deliberate: under dangling re-injection the
// effective transition column of a dangling node is the seed distribution
// itself, so the solver folds `seed(t)` into the bound at query time (see
// TopKSolver) while this index stays cacheable per TransitionKey alongside
// the TransitionMatrix (api/transition_resolver.h).

#ifndef D2PR_TOPK_DEGREE_BOUND_H_
#define D2PR_TOPK_DEGREE_BOUND_H_

#include <span>
#include <vector>

#include "core/transition.h"
#include "graph/csr_graph.h"
#include "graph/types.h"

namespace d2pr {

/// \brief Immutable per-node max in-probability bounds for one transition
/// matrix, plus a descending-by-bound node order.
class DegreeBoundIndex {
 public:
  /// One O(|E|) pass forming each arc's probability from the factors,
  /// plus an O(|V| log |V|) sort. `transition` must have been built from `graph`.
  static DegreeBoundIndex Build(const CsrGraph& graph,
                                const TransitionMatrix& transition);

  NodeId num_nodes() const {
    return static_cast<NodeId>(max_in_prob_.size());
  }

  /// Largest transition probability any single arc delivers into `node`;
  /// 0 for nodes with no in-arcs. Excludes dangling re-injection (seed
  /// dependent; the solver adds it at query time).
  double MaxInProb(NodeId node) const {
    return max_in_prob_[static_cast<size_t>(node)];
  }

  std::span<const double> max_in_prob() const { return max_in_prob_; }

  /// Every node, ordered by MaxInProb descending (ties by ascending node
  /// id, so the order is deterministic).
  std::span<const NodeId> ByBoundDescending() const { return order_; }

  /// True when the source graph has at least one dangling node — the
  /// solver must then widen bounds by the re-injected seed mass.
  bool has_dangling() const { return has_dangling_; }

 private:
  std::vector<double> max_in_prob_;
  std::vector<NodeId> order_;
  bool has_dangling_ = false;
};

}  // namespace d2pr

#endif  // D2PR_TOPK_DEGREE_BOUND_H_
