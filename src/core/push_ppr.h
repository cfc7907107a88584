// Forward-push personalized PageRank (extension).
//
// The paper's authors point to locality-sensitive PPR computation as the
// scalable way to apply these rankings per-query (their ref [17]). This
// module implements the classic forward local-push scheme generalized to an
// arbitrary column-stochastic TransitionMatrix — so pushes work for any
// de-coupling weight p, not just conventional PageRank.
//
// Semantics: approximates ppr = (1-α) Σ_k (α T)^k s for a seed distribution
// s. Maintains an estimate vector and a residual vector; while some node u
// holds residual r[u] > epsilon, it is "pushed": (1-α)·r[u] moves into the
// estimate at u and α·r[u]·T(v,u) moves to each out-neighbor's residual.
// On termination every residual is <= epsilon, giving the L1 guarantee
// ||estimate - ppr||_1 <= epsilon · |V|.
//
// Push order is the hybrid of Wu, Gan, Wei and Zhang ("Unifying the
// Global and Local Approaches: An Efficient Power Iteration with Forward
// Push", SIGMOD 2021). While the query is local the frontier is a FIFO
// with one queued bit per node: a node re-entering goes to the back, so
// one push moves a whole generation of payments (a max-heap "largest
// residual first" order costs ~12x the pushes on hub-heavy graphs,
// results/topk_bench.md). Once the FIFO holds |V|/64 nodes the query is
// global, and the run switches to passes in node order: each pass pushes
// every node whose residual exceeds epsilon, reading the residuals
// sequentially and keeping no queue, and the run ends after a pass that
// pushes nothing. Both orders end with every residual <= epsilon, so the
// guarantee is the same; a local query on a large graph never leaves the
// FIFO. PushRun is that one push step, shared by ForwardPushPpr and the
// bounded top-k solver (topk/topk_solver.h).
//
// The spread loop forms each arc's probability from the factors
// (TransitionMatrix::OutRows). Each Advance call decides the
// transition's sink and blend terms once and runs both frontier phases
// compiled for them, so an arc tests neither; tested per arc they cost
// 16–19% of a bounded top-k push on one pinned core of a 4-vCPU Xeon VM
// (results/topk_bench.md).

#ifndef D2PR_CORE_PUSH_PPR_H_
#define D2PR_CORE_PUSH_PPR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/transition.h"
#include "graph/csr_graph.h"

namespace d2pr {

/// \brief Default safety cap on push operations for a graph of
/// `num_nodes` nodes: 512 * max(num_nodes, 1024). Generous — push work
/// scales like 1/((1-alpha)*epsilon) in theory — but finite, so a
/// pathological (tiny-epsilon) query terminates with completed == false
/// instead of spinning.
int64_t DefaultPushCap(NodeId num_nodes);

/// \brief Forward-push parameters.
struct PushOptions {
  double alpha = 0.85;       ///< Residual (walk-following) probability.
  double epsilon = 1e-7;     ///< Per-node residual threshold.
  /// Safety cap on push operations; any value <= 0 selects
  /// DefaultPushCap(|V|). When the cap is hit the partial estimate and
  /// residuals are returned with PushResult::completed == false.
  int64_t max_pushes = -1;
  /// Dangling-node residual handling: when true (default), residual at a
  /// dangling node is re-injected through the seed distribution (matching
  /// DanglingPolicy::kTeleport); when false it is dropped.
  bool reinject_dangling = true;
};

/// \brief Forward-push output.
struct PushResult {
  std::vector<double> scores;    ///< Approximate PPR estimate.
  std::vector<double> residual;  ///< Final residuals (all <= epsilon).
  int64_t pushes = 0;            ///< Number of push operations performed.
  /// Node-order passes made after the frontier went global; 0 when it
  /// stayed local.
  int64_t passes = 0;
  bool completed = false;        ///< False if max_pushes was hit.
};

/// \brief A forward push in progress: the push step behind ForwardPushPpr
/// and SolveTopK. Advance pushes until the residuals drain or a push
/// limit is reached, so a caller can run its own checks between pushes
/// and resume.
class PushRun {
 public:
  /// Validates the inputs (a seed distribution over the graph's nodes,
  /// alpha in [0, 1), epsilon > 0) and starts a run: estimate 0, residual
  /// = seed, frontier = the seed nodes above epsilon in ascending order.
  /// `graph`, `transition` and `seed` must outlive the run.
  static Result<PushRun> Start(const CsrGraph& graph,
                               const TransitionMatrix& transition,
                               std::span<const double> seed, double alpha,
                               double epsilon, bool reinject_dangling);

  /// Pushes until every residual is <= epsilon (returns true, and every
  /// later call does too) or until pushes() reaches `limit` (returns
  /// false; the next call resumes where this one stopped).
  bool Advance(int64_t limit);

  std::span<const double> scores() const { return scores_; }
  std::span<const double> residual() const { return residual_; }
  int64_t pushes() const { return pushes_; }
  /// Node-order passes made so far; 0 while the frontier is local.
  int64_t passes() const { return passes_; }
  /// True once the frontier went global and the run pushes in passes.
  bool sweeping() const { return sweeping_; }
  /// While the frontier is local: every node that ever held mass, in the
  /// order it first did (the seed support first). Not kept once the run
  /// sweeps: then every node counts as touched.
  std::span<const NodeId> touched_nodes() const { return touched_; }
  /// Whether `v` ever held mass; true for every node once sweeping.
  bool touched(NodeId v) const {
    return sweeping_ || (state_[static_cast<size_t>(v)] & kTouched) != 0;
  }

  /// Moves the estimate and residuals into `result`; ends the run.
  void MoveInto(PushResult* result);

 private:
  PushRun(const CsrGraph& graph, const TransitionMatrix& transition,
          std::span<const double> seed, double alpha, double epsilon,
          bool reinject_dangling);

  template <typename Rows>
  struct Kernel;

  // The two frontier phases over the transition's OutRows, whose terms
  // Advance picks once per call.
  template <typename Rows>
  bool AdvanceLocal(const Rows& rows, int64_t limit);
  template <typename Rows>
  bool AdvancePasses(const Rows& rows, int64_t limit);

  const CsrGraph* graph_;
  const TransitionMatrix* transition_;
  std::span<const double> seed_;
  double alpha_;
  double epsilon_;
  bool reinject_dangling_;

  std::vector<double> scores_;
  std::vector<double> residual_;
  std::vector<NodeId> seed_support_;  // where dangling mass re-enters
  int64_t pushes_ = 0;
  int64_t passes_ = 0;
  bool drained_ = false;

  // The local phase: FIFO entries fifo_[fifo_head_..], and per node one
  // state byte holding its queued and touched bits (one load per arc for
  // both), with the touched nodes listed.
  static constexpr uint8_t kQueued = 1;
  static constexpr uint8_t kTouched = 2;
  std::vector<NodeId> fifo_;
  size_t fifo_head_ = 0;
  std::vector<uint8_t> state_;
  std::vector<NodeId> touched_;
  // The global phase: the next node of the current pass, and whether the
  // pass has pushed anything yet.
  bool sweeping_ = false;
  NodeId cursor_ = 0;
  bool pass_pushed_ = false;
};

/// \brief Runs forward push from a seed distribution.
///
/// `seed` must be a probability distribution over the graph's nodes.
Result<PushResult> ForwardPushPpr(const CsrGraph& graph,
                                  const TransitionMatrix& transition,
                                  std::span<const double> seed,
                                  const PushOptions& options = {});

/// \brief Convenience: single-seed forward push.
Result<PushResult> ForwardPushPpr(const CsrGraph& graph,
                                  const TransitionMatrix& transition,
                                  NodeId seed,
                                  const PushOptions& options = {});

}  // namespace d2pr

#endif  // D2PR_CORE_PUSH_PPR_H_
