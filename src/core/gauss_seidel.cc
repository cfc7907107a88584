#include "core/gauss_seidel.h"

#include <cmath>

#include "common/string_util.h"
#include "core/teleport.h"
#include "core/transition_kernel.h"
#include "linalg/vec_ops.h"

namespace d2pr {

Result<PagerankResult> SolvePagerankGaussSeidel(
    const CsrGraph& graph, const TransitionMatrix& transition,
    std::span<const double> teleport, const PagerankOptions& options) {
  D2PR_RETURN_NOT_OK(ValidatePagerankOptions(options));
  const NodeId n = graph.num_nodes();
  if (n != transition.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("graph has ", n, " nodes but transition matrix has ",
               transition.num_nodes()));
  }
  D2PR_RETURN_NOT_OK(ValidateTeleportVector(teleport, n));

  PagerankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  // Gauss-Seidel needs incoming arcs per node: the transpose lists each
  // node's sources ascending, with their arc weights for the β blend.
  const CsrGraph reverse = graph.Transpose();
  const auto sources = reverse.targets();
  const auto reverse_weights = reverse.weights();
  const TransitionFactors& factors = transition.factors();
  const std::vector<NodeId> dangling = transition.DanglingNodes();

  std::vector<double> x(teleport.begin(), teleport.end());
  std::vector<double> previous(x);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Dangling mass from the current iterate (lagged within the sweep).
    double dangling_mass = 0.0;
    for (NodeId v : dangling) dangling_mass += x[static_cast<size_t>(v)];

    for (NodeId v = 0; v < n; ++v) {
      const size_t begin = static_cast<size_t>(reverse.ArcBegin(v));
      const size_t end = begin + static_cast<size_t>(reverse.OutDegree(v));
      const auto source = [&](size_t e) {
        return static_cast<size_t>(sources[e]);
      };
      const double incoming = PullLive(
          factors, static_cast<size_t>(v), begin, end, source,
          [&](size_t e) { return x[source(e)]; },
          [&](size_t e) { return reverse_weights[e]; });
      double value = options.alpha * incoming +
                     (1.0 - options.alpha) * teleport[static_cast<size_t>(v)];
      switch (options.dangling) {
        case DanglingPolicy::kTeleport:
          value += options.alpha * dangling_mass *
                   teleport[static_cast<size_t>(v)];
          break;
        case DanglingPolicy::kSelfLoop:
          if (transition.IsDangling(v)) {
            // x_v = alpha*x_v + rest  =>  x_v = rest / (1 - alpha).
            value /= (1.0 - options.alpha);
          }
          break;
        case DanglingPolicy::kRenormalize:
          break;
      }
      x[static_cast<size_t>(v)] = value;
    }
    NormalizeL1(x);

    result.iterations = iter;
    result.residual = DiffL1(x, previous);
    previous = x;
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores = std::move(x);
  return result;
}

Result<PagerankResult> SolvePagerankGaussSeidel(
    const CsrGraph& graph, const TransitionMatrix& transition,
    const PagerankOptions& options) {
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  return SolvePagerankGaussSeidel(graph, transition, teleport, options);
}

}  // namespace d2pr
