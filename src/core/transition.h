// Degree de-coupled transition models (the paper's Section 3).
//
// A TransitionMatrix holds, for every arc (i -> j) of a CsrGraph, the
// random-walk probability T(j, i) of stepping from i to j. The library
// builds it from a TransitionConfig implementing the paper's three model
// families:
//
//   * Conventional PageRank        p = 0 (or beta = 1 on weighted graphs)
//   * D2PR, undirected/unweighted  T_D(j,i) ∝ deg(v_j)^-p            (Eq. 1)
//   * D2PR, directed/unweighted    T_D(j,i) ∝ outdeg(v_j)^-p         (§3.2.2)
//   * D2PR, weighted               T = β·T_conn + (1-β)·T_D,
//                                  T_D(j,i) ∝ Θ(v_j)^-p,
//                                  Θ(v) = Σ out-weights of v          (§3.2.3)
//
// Numerical robustness: metric^-p is evaluated in log space with per-row
// max subtraction, so any real p (including |p| ≫ 1, the desideratum's
// limit cases) produces finite, normalized probabilities. A destination
// with metric 0 (a directed sink) is treated as the limit: it captures the
// whole row for p > 0 and gets probability 0 for p < 0.

#ifndef D2PR_CORE_TRANSITION_H_
#define D2PR_CORE_TRANSITION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"

namespace d2pr {

class TransitionStore;

/// \brief Which destination quantity is raised to the power -p.
enum class DegreeMetric {
  /// Resolve from the graph: out-strength Θ for weighted graphs,
  /// out-degree otherwise (== degree for undirected graphs).
  kAuto,
  /// Destination out-degree (paper's directed and undirected models).
  kOutDegree,
  /// Destination out-strength Θ (paper's weighted model).
  kOutStrength,
  /// Destination in-degree: an extension useful on directed graphs where
  /// popularity (in-links) rather than activity (out-links) should be
  /// de-coupled.
  kInDegree,
};

/// \brief Parameters of the transition model.
struct TransitionConfig {
  /// Degree de-coupling weight. 0 = conventional PageRank; > 0 penalizes
  /// high-degree destinations; < 0 boosts them.
  double p = 0.0;
  /// Blend between connection strength (β = 1, conventional weighted
  /// PageRank) and degree de-coupling (β = 0, full de-coupling; the paper's
  /// default). Only meaningful on weighted graphs; ignored (treated as 0)
  /// on unweighted graphs, whose T_conn equals T_D at p = 0 anyway.
  double beta = 0.0;
  DegreeMetric metric = DegreeMetric::kAuto;
};

/// \brief Identity of a transition model on a fixed graph: the key of
/// every per-model cache and store file.
///
/// `metric` must be resolved (never kAuto) so that equivalent requests
/// written differently hit the same entry; `beta` must be the effective
/// value (0 on unweighted graphs). D2prEngine performs both
/// normalizations before lookup.
struct TransitionKey {
  double p = 0.0;
  double beta = 0.0;
  DegreeMetric metric = DegreeMetric::kOutDegree;

  bool operator==(const TransitionKey&) const = default;
};

/// \brief Column-stochastic sparse transition matrix aligned with a graph's
/// CSR arcs.
///
/// probs()[e] is the probability of the arc stored at index e in the graph:
/// for every non-dangling source i, the probabilities of i's arcs sum to 1.
class TransitionMatrix {
 public:
  /// Builds the transition matrix for `graph` under `config`.
  ///
  /// Returns InvalidArgument when beta is outside [0, 1], when the metric is
  /// incompatible with the graph (kOutStrength on an unweighted graph), or
  /// when p is not finite.
  static Result<TransitionMatrix> Build(const CsrGraph& graph,
                                        const TransitionConfig& config);

  /// Process-wide count of successful Build() materializations. A test
  /// seam: the partition suites prove the subgraph slice path
  /// (core/transition_slices.h) never materializes a whole-graph matrix
  /// by asserting this counter stays put across a local slice build.
  static uint64_t BuildCount();

  // Storage is either owned vectors (Build) or spans into an external
  // backing such as the persistent store's mmap pages (TransitionStore).
  // Moves keep the spans valid (vector buffers survive moves); copies
  // would not, and nothing needs them — matrices are shared via
  // shared_ptr<const TransitionMatrix>.
  TransitionMatrix(TransitionMatrix&&) noexcept = default;
  TransitionMatrix& operator=(TransitionMatrix&&) noexcept = default;
  TransitionMatrix(const TransitionMatrix&) = delete;
  TransitionMatrix& operator=(const TransitionMatrix&) = delete;

  /// Number of nodes of the underlying graph.
  NodeId num_nodes() const { return num_nodes_; }

  /// Per-arc probabilities, aligned with CsrGraph::targets().
  std::span<const double> probs() const { return probs_; }

  /// True if node `v` has no outgoing arcs (its column is all zero).
  bool IsDangling(NodeId v) const { return dangling_[v] != 0; }

  /// Indices of dangling nodes.
  std::vector<NodeId> DanglingNodes() const;

  /// Sparse matrix-vector product: out[j] = Σ_i T(j, i) · x[i].
  /// Dangling columns contribute nothing (the solver redistributes their
  /// mass according to its dangling policy). Sizes must equal num_nodes().
  void Multiply(const CsrGraph& graph, std::span<const double> x,
                std::span<double> out) const;

  /// Probability of the arc (u -> v); 0 when absent. O(log deg) lookup for
  /// tests and examples, not for inner loops.
  double Prob(const CsrGraph& graph, NodeId u, NodeId v) const;

 private:
  /// The store constructs mmap-backed instances via the span constructor
  /// and serializes the private sections byte-exactly.
  friend class TransitionStore;

  TransitionMatrix(NodeId num_nodes, std::vector<double> probs,
                   std::vector<uint8_t> dangling)
      : num_nodes_(num_nodes),
        owned_probs_(std::move(probs)),
        owned_dangling_(std::move(dangling)),
        probs_(owned_probs_),
        dangling_(owned_dangling_) {}

  /// Wraps externally owned storage; `backing` keeps the spans alive for
  /// the matrix's lifetime (the store passes the mmap-ed file).
  TransitionMatrix(NodeId num_nodes, std::span<const double> probs,
                   std::span<const uint8_t> dangling,
                   std::shared_ptr<const void> backing)
      : num_nodes_(num_nodes),
        probs_(probs),
        dangling_(dangling),
        backing_(std::move(backing)) {}

  NodeId num_nodes_;
  std::vector<double> owned_probs_;      // empty when externally backed
  std::vector<uint8_t> owned_dangling_;  // empty when externally backed
  std::span<const double> probs_;
  std::span<const uint8_t> dangling_;
  std::shared_ptr<const void> backing_;  // null when self-owned
};

/// \brief Resolves DegreeMetric::kAuto for a graph; other values pass
/// through unchanged.
DegreeMetric ResolveMetric(const CsrGraph& graph, DegreeMetric metric);

/// \brief Metric resolution from weightedness alone — kAuto resolves to
/// kOutStrength iff `weighted`. The graph overload delegates here;
/// consumers that hold a shard cut instead of a CsrGraph (ShardWorker's
/// --shard-file path) resolve from the cut's metadata and MUST agree
/// bitwise with the graph path.
DegreeMetric ResolveMetric(bool weighted, DegreeMetric metric);

/// \brief The metric values deg/outdeg/Θ/indeg per node, as configured.
/// These are the quantities raised to -p in the D2PR formulas.
std::vector<double> MetricValues(const CsrGraph& graph, DegreeMetric metric);

/// \brief Validates a TransitionConfig against a graph — the exact checks
/// TransitionMatrix::Build performs (finite p, beta in [0, 1], metric
/// compatible with weightedness), shared with the partition slice builder
/// so both construction paths reject identical inputs with identical
/// messages.
Status ValidateTransitionConfig(const CsrGraph& graph,
                                const TransitionConfig& config);

/// \brief The same validation from weightedness alone (identical checks,
/// identical messages) — the graph overload delegates here. Used by the
/// cut-loaded slice builder, where no CsrGraph exists.
Status ValidateTransitionConfig(bool weighted, const TransitionConfig& config);

// --- The per-arc arithmetic of the de-coupled model, factored out. ---
//
// TransitionMatrix::Build and the partition slice builder
// (core/transition_slices.h) must produce bitwise-equal probabilities for
// every arc; the slice builder recomputes row entries in pull (in-CSR)
// order instead of row order, so the arithmetic cannot live inline in
// Build's loop. These are deliberately defined out-of-line in
// transition.cc: one machine-code instance means no call site can differ
// by FP contraction, which would silently break the bit-parity contract.

/// \brief Softmax exponent of one arc: -p * log(metric(target)), with the
/// metric-0 limit semantics (`log_metric_target == -inf`): the target
/// dominates the row for p > 0 (+inf), vanishes for p < 0 (-inf), and is
/// neutral for p = 0 (0^0 := 1).
double DecoupledArcExponent(double log_metric_target, double p);

/// \brief Unnormalized softmax weight of one arc given its row's max
/// exponent: rows containing a +inf exponent split among their +inf arcs
/// (1 vs 0); -inf arcs vanish; finite arcs get exp(exponent - max).
double DecoupledArcNumerator(double exponent, double max_exponent);

/// \brief Final arc probability: the de-coupled component
/// numerator / row_sum, beta-blended with the connection-strength
/// component weight / strength_total when beta > 0.
double BlendedArcProb(double numerator, double row_sum, double beta,
                      double arc_weight, double strength_total);

}  // namespace d2pr

#endif  // D2PR_CORE_TRANSITION_H_
