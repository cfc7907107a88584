#include "core/pagerank.h"

#include <cmath>

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

Result<PagerankResult> SolvePagerankFrom(const CsrGraph& graph,
                                         const TransitionMatrix& transition,
                                         std::span<const double> teleport,
                                         std::span<const double> initial,
                                         const PagerankOptions& options) {
  D2PR_RETURN_NOT_OK(ValidatePagerankOptions(options));
  const NodeId n = graph.num_nodes();
  if (n != transition.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("graph has ", n, " nodes but transition matrix has ",
               transition.num_nodes()));
  }
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

  const TransitionFactors& factors = transition.factors();
  const std::vector<NodeId> dangling = transition.DanglingNodes();
  std::vector<double> current(initial.begin(), initial.end());
  NormalizeL1(current);  // defensive: keep the iterate a distribution
  std::vector<double> next(static_cast<size_t>(n), 0.0);
  std::vector<double> blend_sums(factors.has_blend() ? next.size() : 0);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // The scatter half of T·x; the u∘ pass is fused into the per-node
    // pass below, which applies each node's terms in the order the block
    // solvers do (core/block_solver.cc).
    ScatterProducts(graph, factors, current, next, blend_sums);

    double dangling_mass = 0.0;
    for (NodeId v : dangling) dangling_mass += current[static_cast<size_t>(v)];

    for (NodeId v = 0; v < n; ++v) {
      const size_t node = static_cast<size_t>(v);
      double value = FinishDestination(
          factors, node, next[node],
          factors.has_blend() ? blend_sums[node] : 0.0);
      switch (options.dangling) {
        case DanglingPolicy::kTeleport:
          if (dangling_mass > 0.0) value += dangling_mass * teleport[node];
          break;
        case DanglingPolicy::kSelfLoop:
          if (transition.IsDangling(v)) value += current[node];
          break;
        case DanglingPolicy::kRenormalize:
          // Mass is dropped here; the blend below plus the final
          // renormalize keeps the iterate a distribution.
          break;
      }
      next[node] =
          options.alpha * value + (1.0 - options.alpha) * teleport[node];
    }
    if (options.dangling == DanglingPolicy::kRenormalize) {
      NormalizeL1(next);
    }

    result.iterations = iter;
    result.residual = DiffL1(next, current);
    current.swap(next);
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores = std::move(current);
  return result;
}

Result<PagerankResult> SolvePagerank(const CsrGraph& graph,
                                     const TransitionMatrix& transition,
                                     const PagerankOptions& options) {
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  return SolvePagerank(graph, transition, teleport, options);
}

}  // namespace d2pr
