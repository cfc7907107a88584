// Degree de-coupled transition models (the paper's Section 3).
//
// A TransitionMatrix holds the random-walk probability T(j, i) of
// stepping from i to j along every arc of a CsrGraph, for one
// TransitionConfig implementing the paper's three model families:
//
//   * Conventional PageRank        p = 0 (or beta = 1 on weighted graphs)
//   * D2PR, undirected/unweighted  T_D(j,i) ∝ deg(v_j)^-p            (Eq. 1)
//   * D2PR, directed/unweighted    T_D(j,i) ∝ outdeg(v_j)^-p         (§3.2.2)
//   * D2PR, weighted               T = β·T_conn + (1-β)·T_D,
//                                  T_D(j,i) ∝ Θ(v_j)^-p,
//                                  Θ(v) = Σ out-weights of v          (§3.2.3)
//
// The matrix is never stored per arc. T_D(j, i) = m_j^-p / Z_i with
// Z_i = Σ_{k ∈ out(i)} m_k^-p is a rank-one scaling of the adjacency
// matrix, diag(u)·Aᵀ·diag(c) with u_j = m_j^-p and c_i = 1/Z_i, so a
// transition keeps O(|V|) factors (TransitionFactors) and every consumer
// forms an arc's probability c_i·u_j on the fly. A power sweep becomes
// y = c∘x, a gather of y along each destination's in-arcs, and one u∘
// pass (core/transition_kernel.h holds the shared kernel); a push reads
// its out-rows through OutRows.
//
// The sink and blend terms below are optional: a transition has each or
// not. A kernel decides that once per call (WithTerms) and runs a loop
// compiled for the answer, so no row or arc tests for a term; the
// arithmetic of every variant is the same, term for term.
//
// Numerical range: u_j = exp(-p·ln m_j - shift) with one global shift,
// the largest exponent, so u ∈ (0, 1] and c_i ∈ [1/outdeg(i), 1/min u].
// Both stay normal doubles while the exponent span
// |p|·ln(max m / min m) is at most -ln(DBL_MIN) ≈ 708.4; past that Build
// returns OutOfRange naming the span instead of underflowing rows.
//
// Limit semantics: a destination with metric 0 (a directed sink) captures
// its whole row for p > 0, splitting it evenly when a row has several
// such targets, and gets probability 0 for p < 0, except that a row whose
// targets all have metric 0 is uniform. Both rules are a second factored
// term: sink[j] = [m_j = 0] and sink_c[i] = 1/#sink targets of i on the
// flagged rows, whose c_i is 0. At p = 0 metric 0 is nothing special
// (0^0 := 1). The weighted blend is a third term, β·w_ij/Θ_i, held as
// blend_c[i] = β/Θ_i and read with the arc weights the graph holds.

#ifndef D2PR_CORE_TRANSITION_H_
#define D2PR_CORE_TRANSITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/dispatch.h"
#include "common/result.h"
#include "graph/csr_graph.h"

namespace d2pr {

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

/// \brief The O(|V|) factors of one transition. The arc i -> j carries
///
///   T(j, i) = (sink[j] ? sink_c[i] : c[i]) · u[j]  +  w_ij · blend_c[i].
///
/// u and sink are indexed by destination, c, sink_c and blend_c by
/// source. A whole-graph matrix indexes both sides by node id; a shard
/// indexes destinations by owned position and sources by its
/// [owned | boundary] slots (core/transition_slices.h).
struct TransitionFactors {
  /// m_j^-p under the global shift; 1 on sink destinations.
  std::vector<double> u;
  /// (1-β)/Z_i; 0 on dangling and flagged rows.
  std::vector<double> c;
  /// The sink term, present only when p != 0 and some node has metric 0
  /// (empty otherwise): sink[j] = [m_j = 0], and sink_c[i] =
  /// (1-β)/#sink targets of i on flagged rows, 0 elsewhere.
  std::vector<uint8_t> sink;
  std::vector<double> sink_c;
  /// β/Θ_i; empty when β = 0.
  std::vector<double> blend_c;

  bool has_sink() const { return !sink.empty(); }
  bool has_blend() const { return !blend_c.empty(); }
};

/// \brief Returns fn(sink, blend), with sink and blend the
/// std::bool_constant of f.has_sink() and f.has_blend(): the one test of
/// a transition's optional terms a kernel call makes, after which its
/// loop tests them at compile time (common/dispatch.h).
template <typename Fn>
decltype(auto) WithTerms(const TransitionFactors& f, Fn&& fn) {
  return WithFlag(f.has_sink(), [&](auto sink) {
    return WithFlag(f.has_blend(),
                    [&](auto blend) { return fn(sink, blend); });
  });
}

/// \brief Column-stochastic sparse transition matrix over a graph's
/// arcs, held as TransitionFactors plus the dangling bitmap.
///
/// For every non-dangling source i, the probabilities of i's arcs sum
/// to 1.
class TransitionMatrix {
 public:
  /// Builds the transition matrix for `graph` under `config`.
  ///
  /// Returns InvalidArgument when beta is outside [0, 1], when the metric is
  /// incompatible with the graph (kOutStrength on an unweighted graph), or
  /// when p is not finite; OutOfRange when the exponent span is too wide
  /// for normal factors (see the file comment).
  static Result<TransitionMatrix> Build(const CsrGraph& graph,
                                        const TransitionConfig& config);

  /// Process-wide count of successful Build() materializations. A test
  /// seam: the partition suites prove the shard-local builders
  /// (core/transition_slices.h) never call Build by asserting this
  /// counter stays put across a local build.
  static uint64_t BuildCount();

  /// Assembles a matrix from factors indexed by node id, a node-sized
  /// dangling bitmap and the graph's arc count (the store's loader and
  /// the shard-local builder; Build is the usual way in).
  TransitionMatrix(TransitionFactors factors, std::vector<uint8_t> dangling,
                   EdgeIndex num_arcs);

  /// Number of nodes of the underlying graph.
  NodeId num_nodes() const { return static_cast<NodeId>(dangling_.size()); }
  /// Number of arcs of the underlying graph.
  EdgeIndex num_arcs() const { return num_arcs_; }

  const TransitionFactors& factors() const { return factors_; }

  /// True if node `v` has no outgoing arcs (its column is all zero).
  bool IsDangling(NodeId v) const { return dangling_[v] != 0; }

  /// The dangling bitmap, one byte per node.
  std::span<const uint8_t> dangling() const { return dangling_; }

  /// Indices of dangling nodes.
  std::vector<NodeId> DanglingNodes() const;

  /// \brief The out-rows' arc probabilities, with the transition's
  /// optional terms fixed at compile time: kSink == factors().has_sink()
  /// and kBlend == factors().has_blend() (VisitOutRows picks the pair),
  /// so an arc tests neither. Every array is read through a pointer taken
  /// once, at construction; keep the object in a local, since a loop body
  /// that writes bytes could alias the matrix's members and force their
  /// reload on every arc.
  template <bool kSink, bool kBlend>
  class OutRows {
   public:
    /// One source's factors, each multiplied by a scale.
    struct Row {
      double c = 0.0;
      double sink_c = 0.0;   // 0 without the sink term
      double blend_c = 0.0;  // 0 when beta = 0
    };

    /// `graph` must be the graph the matrix was built from.
    OutRows(const TransitionFactors& f, const CsrGraph& graph)
        : u_(f.u.data()),
          c_(f.c.data()),
          sink_(f.sink.data()),
          sink_c_(f.sink_c.data()),
          blend_c_(f.blend_c.data()),
          weights_(graph.weights().data()) {}

    /// The out-row of `src`, every probability multiplied by `scale`
    /// (folded into the source factors, so a push moving α·r_src along
    /// the row pays one multiply per arc).
    Row At(NodeId src, double scale = 1.0) const {
      const size_t i = static_cast<size_t>(src);
      Row row;
      row.c = scale * c_[i];
      if constexpr (kSink) row.sink_c = scale * sink_c_[i];
      if constexpr (kBlend) row.blend_c = scale * blend_c_[i];
      return row;
    }

    /// Probability of arc `arc` (a CSR arc index of the row's source)
    /// into `target`, formed from the factors: what one per-arc table
    /// entry used to hold.
    double Prob(const Row& row, EdgeIndex arc, NodeId target) const {
      const size_t j = static_cast<size_t>(target);
      double prob = (kSink && sink_[j] ? row.sink_c : row.c) * u_[j];
      if constexpr (kBlend) {
        prob += weights_[static_cast<size_t>(arc)] * row.blend_c;
      }
      return prob;
    }

   private:
    const double* u_;
    const double* c_;
    const uint8_t* sink_;     // read only when kSink
    const double* sink_c_;    // read only when kSink
    const double* blend_c_;   // read only when kBlend
    const double* weights_;   // read only when kBlend
  };

  /// Returns fn(rows) for the OutRows of this transition's terms over
  /// `graph`, the graph the matrix was built from.
  template <typename Fn>
  decltype(auto) VisitOutRows(const CsrGraph& graph, Fn&& fn) const {
    return WithTerms(factors_, [&](auto sink, auto blend) {
      return fn(OutRows<decltype(sink)::value, decltype(blend)::value>(
          factors_, graph));
    });
  }

  /// Sparse matrix-vector product: out[j] = Σ_i T(j, i) · x[i].
  /// Dangling columns contribute nothing (the solver redistributes their
  /// mass according to its dangling policy). Sizes must equal num_nodes(),
  /// and x must be non-negative, as every solver's iterate is. This is
  /// the one-column pass of the shared gather kernel
  /// (core/transition_kernel.h), over the graph's in-rows (a directed
  /// graph is transposed per call), bitwise equal to one power step's
  /// product.
  void Multiply(const CsrGraph& graph, std::span<const double> x,
                std::span<double> out) const;

  /// Probability of the arc (u -> v); 0 when absent. O(log deg) lookup for
  /// tests and examples, not for inner loops.
  double Prob(const CsrGraph& graph, NodeId u, NodeId v) const;

 private:
  TransitionFactors factors_;
  std::vector<uint8_t> dangling_;
  EdgeIndex num_arcs_ = 0;
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

// --- The factor arithmetic, shared by every builder. ---
//
// TransitionMatrix::Build and the shard-local builders
// (core/transition_slices.h) must produce bitwise-equal factors, so the
// arithmetic lives in these two out-of-line functions: one machine-code
// instance means no call site can differ by FP contraction.

/// \brief Fills factors->u (and factors->sink when the sink term is on)
/// for every node from the O(|V|) metric vector, under exponent p. The
/// shift is global, so any subset of nodes gets the same bits as the
/// whole graph. OutOfRange when the exponent span leaves some u
/// subnormal.
Status BuildDestinationFactors(std::span<const double> metric_values,
                               double p, TransitionFactors* factors);

/// \brief One source's factors, folded over its out-row in ascending arc
/// order.
struct SourceFactors {
  double c = 0.0;
  double sink_c = 0.0;
  double blend_c = 0.0;
};

/// \brief Folds one non-empty out-row: `targets` are global ids into
/// `destinations` (u and sink over every node, from
/// BuildDestinationFactors); `weights` are the row's arc weights, read
/// only when beta > 0.
SourceFactors FoldSourceRow(std::span<const NodeId> targets,
                            std::span<const double> weights,
                            const TransitionFactors& destinations, double p,
                            double beta);

}  // namespace d2pr

#endif  // D2PR_CORE_TRANSITION_H_
