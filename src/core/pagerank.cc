#include "core/pagerank.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/check.h"
#include "common/string_util.h"
#include "core/teleport.h"
#include "core/transition_kernel.h"
#include "linalg/vec_ops.h"

namespace d2pr {

Status ValidatePagerankOptions(const PagerankOptions& options) {
  if (!(options.alpha >= 0.0) || options.alpha >= 1.0) {
    return Status::InvalidArgument(
        StrCat("alpha must lie in [0, 1), got ", options.alpha));
  }
  if (!(options.tolerance > 0.0)) {
    return Status::InvalidArgument(
        StrCat("tolerance must be positive, got ", options.tolerance));
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument(
        StrCat("max_iterations must be >= 1, got ", options.max_iterations));
  }
  return Status::OK();
}

Status ValidateTeleportVector(std::span<const double> teleport,
                              NodeId num_nodes) {
  if (teleport.size() != static_cast<size_t>(num_nodes)) {
    return Status::InvalidArgument(
        StrCat("teleport size ", teleport.size(), " != num nodes ",
               num_nodes));
  }
  double sum = 0.0;
  for (double t : teleport) {
    if (!std::isfinite(t)) {
      return Status::InvalidArgument(
          StrCat("teleport entries must be finite, got ", t));
    }
    if (t < 0.0) {
      return Status::InvalidArgument("teleport entries must be >= 0");
    }
    sum += t;
  }
  if (num_nodes > 0 && std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        StrCat("teleport must sum to 1, got ", sum));
  }
  return Status::OK();
}

Result<PagerankResult> SolvePagerank(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     std::span<const double> teleport,
                                     const PagerankOptions& options) {
  return SolvePagerankFrom(graph, transition, teleport, teleport, options);
}

namespace {

/// A power solve's first two checks: its options, then the transition's
/// node count against the graph's.
Status ValidateColumn(const CsrGraph& graph,
                      const TransitionMatrix& transition,
                      const PagerankOptions& options) {
  D2PR_RETURN_NOT_OK(ValidatePagerankOptions(options));
  if (graph.num_nodes() != transition.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("graph has ", graph.num_nodes(),
               " nodes but transition matrix has ", transition.num_nodes()));
  }
  return Status::OK();
}

/// One live column of a batched power solve.
struct Lane {
  const TransitionFactors* factors = nullptr;
  std::span<const uint8_t> dangling_bitmap;
  std::vector<NodeId> dangling;  ///< Ascending, as DanglingNodes() lists.
  PagerankOptions options;
  size_t column = 0;  ///< Index into the caller's results.
};

/// One power iteration for W live columns over a row-major iterate:
/// current[v * W + k] is column k's value at node v. Column k does what
/// one iteration of a single-column solve does, in the same order: the
/// dangling mass over the ascending dangling list, the gather
/// (GatherColumns) with each destination finished as its in-row is
/// summed, then the renormalize and the L1 change. The columns never mix,
/// so SIMD across them changes no bit.
template <size_t W>
void PowerStep(const CsrGraph& in_rows, std::span<const Lane> lanes,
               std::span<const double> teleport,
               std::span<const double> current, std::span<double> next,
               GatherScratch& scratch, double* residual) {
  const size_t n = teleport.size();
  // Each column's factors, and its dangling policy as data: the mass
  // kTeleport re-injects (0 under the other policies, where nothing is
  // added), and the bitmap of nodes kSelfLoop keeps their own mass at
  // (null otherwise).
  const TransitionFactors* f[W];
  double teleport_mass[W];
  const uint8_t* self_loop[W];
  double alpha[W];
  bool renormalize[W];
  bool any_renormalize = false;
  for (size_t k = 0; k < W; ++k) {
    const PagerankOptions& options = lanes[k].options;
    f[k] = lanes[k].factors;
    double mass = 0.0;
    for (NodeId v : lanes[k].dangling) {
      mass += current[static_cast<size_t>(v) * W + k];
    }
    teleport_mass[k] =
        options.dangling == DanglingPolicy::kTeleport ? mass : 0.0;
    self_loop[k] = options.dangling == DanglingPolicy::kSelfLoop
                       ? lanes[k].dangling_bitmap.data()
                       : nullptr;
    alpha[k] = options.alpha;
    renormalize[k] = options.dangling == DanglingPolicy::kRenormalize;
    any_renormalize = any_renormalize || renormalize[k];
  }

  // The u∘ pass, the dangling policy and the teleport blend, applied to
  // each node's terms in the order the block solvers do
  // (core/block_solver.cc), and DiffL1 folded in the same loop unless a
  // column renormalizes. kRenormalize drops the dangling mass here; the
  // blend plus the renormalize below keeps the iterate a distribution.
  double diff[W] = {};
  GatherColumns<W>(
      in_rows, f, current, scratch,
      [&](size_t v, const double* sums, const double* blend_sums) {
        for (size_t k = 0; k < W; ++k) {
          const size_t idx = v * W + k;
          double value = FinishDestination(*f[k], v, sums[k], blend_sums[k]);
          if (teleport_mass[k] > 0.0) value += teleport_mass[k] * teleport[v];
          if (self_loop[k] != nullptr && self_loop[k][v]) {
            value += current[idx];
          }
          next[idx] = alpha[k] * value + (1.0 - alpha[k]) * teleport[v];
          if (!any_renormalize) diff[k] += std::abs(next[idx] - current[idx]);
        }
      });

  if (any_renormalize) {
    // NormalizeL1 per renormalizing column: the L1 norm in ascending node
    // order, then a multiply by its reciprocal. The other columns scale by
    // 1.0, which is exact. Then DiffL1 per column.
    double norm[W] = {};
    for (size_t v = 0; v < n; ++v) {
      for (size_t k = 0; k < W; ++k) norm[k] += std::abs(next[v * W + k]);
    }
    double scale[W];
    for (size_t k = 0; k < W; ++k) {
      scale[k] = renormalize[k] && norm[k] > 0.0 ? 1.0 / norm[k] : 1.0;
    }
    for (size_t v = 0; v < n; ++v) {
      for (size_t k = 0; k < W; ++k) {
        next[v * W + k] *= scale[k];
        diff[k] += std::abs(next[v * W + k] - current[v * W + k]);
      }
    }
  }
  for (size_t k = 0; k < W; ++k) residual[k] = diff[k];
}

using PowerStepFn = void (*)(const CsrGraph&, std::span<const Lane>,
                            std::span<const double>, std::span<const double>,
                            std::span<double>, GatherScratch&, double*);

/// PowerStep by live width; index width - 1.
constexpr PowerStepFn kPowerSteps[] = {PowerStep<1>, PowerStep<2>,
                                       PowerStep<3>, PowerStep<4>,
                                       PowerStep<5>, PowerStep<6>};
static_assert(std::size(kPowerSteps) == kMaxBatchColumns);

/// The power loop for up to kMaxBatchColumns validated columns over a
/// non-empty graph whose in-rows are `in_rows` (WholeGraphInRows), every
/// column starting from `initial` (normalized first, as a defensive
/// measure). Writes results[k] for columns[k].
void RunPowerColumns(const CsrGraph& in_rows,
                     std::span<const PagerankColumn> columns,
                     std::span<const double> teleport,
                     std::span<const double> initial,
                     std::span<PagerankResult> results) {
  D2PR_CHECK(!columns.empty() && columns.size() <= kMaxBatchColumns);
  const size_t n = teleport.size();
  std::vector<Lane> lanes(columns.size());
  for (size_t k = 0; k < columns.size(); ++k) {
    const TransitionMatrix& transition = *columns[k].transition;
    lanes[k].factors = &transition.factors();
    lanes[k].dangling_bitmap = transition.dangling();
    lanes[k].dangling = transition.DanglingNodes();
    lanes[k].options = columns[k].options;
    lanes[k].column = k;
  }

  std::vector<double> start(initial.begin(), initial.end());
  NormalizeL1(start);  // defensive: keep the iterate a distribution
  size_t width = lanes.size();
  std::vector<double> current;
  if (width == 1) {
    current = std::move(start);
  } else {
    current.resize(n * width);
    for (size_t v = 0; v < n; ++v) {
      std::fill_n(&current[v * width], width, start[v]);
    }
  }
  std::vector<double> next;
  GatherScratch scratch;
  double residual[kMaxBatchColumns];
  const TransitionFactors* factors[kMaxBatchColumns];
  bool columns_changed = true;

  for (int iter = 1; width > 0; ++iter) {
    const std::span<const Lane> live(lanes.data(), width);
    if (columns_changed) {
      for (size_t k = 0; k < width; ++k) factors[k] = lanes[k].factors;
      scratch.Reset(factors, width, n);
      next.resize(n * width);
      columns_changed = false;
    }
    kPowerSteps[width - 1](in_rows, live, teleport, current, next, scratch,
                           residual);
    current.swap(next);

    // Retire the columns that converged or hit their cap; the rest keep
    // their order.
    size_t kept = 0;
    size_t keep[kMaxBatchColumns];
    for (size_t k = 0; k < width; ++k) {
      PagerankResult& result = results[lanes[k].column];
      result.iterations = iter;
      result.residual = residual[k];
      result.converged = residual[k] < lanes[k].options.tolerance;
      if (!result.converged && iter < lanes[k].options.max_iterations) {
        keep[kept++] = k;
      } else if (width == 1) {
        result.scores = std::move(current);
      } else {
        result.scores.resize(n);
        for (size_t v = 0; v < n; ++v) result.scores[v] = current[v * width + k];
      }
    }
    if (kept > 0 && kept < width) {
      // Compact the kept columns in place, front to back: each value
      // moves to an index no larger than its own, past every value still
      // unread.
      for (size_t v = 0; v < n; ++v) {
        for (size_t k = 0; k < kept; ++k) {
          current[v * kept + k] = current[v * width + keep[k]];
        }
      }
      current.resize(n * kept);
      for (size_t k = 0; k < kept; ++k) {
        if (keep[k] != k) lanes[k] = std::move(lanes[keep[k]]);
      }
      columns_changed = true;
    }
    width = kept;
  }
}

}  // namespace

Result<PagerankResult> SolvePagerankFrom(const CsrGraph& graph,
                                         const TransitionMatrix& transition,
                                         std::span<const double> teleport,
                                         std::span<const double> initial,
                                         const PagerankOptions& options) {
  D2PR_RETURN_NOT_OK(ValidateColumn(graph, transition, options));
  const NodeId n = graph.num_nodes();
  D2PR_RETURN_NOT_OK(ValidateTeleportVector(teleport, n));
  if (initial.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument("initial vector size mismatch");
  }
  for (double v : initial) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          StrCat("initial entries must be finite, got ", v));
    }
    if (v < 0.0) {
      return Status::InvalidArgument("initial entries must be >= 0");
    }
  }

  PagerankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }
  const PagerankColumn column{&transition, options};
  const WholeGraphInRows in_rows(graph);
  RunPowerColumns(in_rows.rows(), {&column, 1}, teleport, initial,
                  {&result, 1});
  return result;
}

Result<std::vector<PagerankResult>> SolvePagerankBatch(
    const CsrGraph& graph, std::span<const PagerankColumn> columns,
    std::span<const double> teleport) {
  const NodeId n = graph.num_nodes();
  // SolvePagerank's checks, column by column: the first column whose own
  // solve would fail names the error.
  const Status teleport_status = ValidateTeleportVector(teleport, n);
  for (const PagerankColumn& column : columns) {
    D2PR_CHECK(column.transition != nullptr);
    D2PR_RETURN_NOT_OK(
        ValidateColumn(graph, *column.transition, column.options));
    D2PR_RETURN_NOT_OK(teleport_status);
  }

  std::vector<PagerankResult> results(columns.size());
  if (n == 0) {
    for (PagerankResult& result : results) result.converged = true;
    return results;
  }
  // ceil(K / kMaxBatchColumns) contiguous groups, the first K mod groups
  // one column wider than the rest.
  const size_t groups =
      (columns.size() + kMaxBatchColumns - 1) / kMaxBatchColumns;
  const WholeGraphInRows in_rows(graph);
  size_t begin = 0;
  for (size_t g = 0; g < groups; ++g) {
    const size_t size =
        columns.size() / groups + (g < columns.size() % groups ? 1 : 0);
    RunPowerColumns(in_rows.rows(), columns.subspan(begin, size), teleport,
                    teleport,
                    std::span<PagerankResult>(results).subspan(begin, size));
    begin += size;
  }
  return results;
}

Result<PagerankResult> SolvePagerank(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     const PagerankOptions& options) {
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  return SolvePagerank(graph, transition, teleport, options);
}

}  // namespace d2pr
