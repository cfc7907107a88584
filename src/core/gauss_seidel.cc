#include "core/gauss_seidel.h"

#include <algorithm>
#include <vector>

#include "common/string_util.h"
#include "core/block_solver.h"
#include "core/teleport.h"
#include "core/transition_kernel.h"

namespace d2pr {

namespace {

/// The whole graph as one block: row k is node k, and its in-arcs are
/// the graph's in-row of k.
struct WholeGraphIndex {
  const NodeId* in_sources;
  const double* weights;
  const uint8_t* node_dangling;

  size_t dst(size_t k) const { return k; }
  const NodeId* sources() const { return in_sources; }
  double weight(size_t idx) const { return weights[idx]; }
  bool dangling(size_t k) const { return node_dangling[k] != 0; }
};

}  // namespace

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

  const WholeGraphInRows in_rows(graph);
  const CsrGraph& rows = in_rows.rows();
  const WholeGraphIndex index{rows.targets().data(), rows.weights().data(),
                              transition.dangling().data()};
  const TransitionFactors& factors = transition.factors();
  const SourceProducts no_products;  // Gauss-Seidel reads the live iterate
  BlockSweepParams params;
  params.gauss_seidel = true;
  params.dangling = options.dangling;
  params.alpha = options.alpha;
  params.teleport = teleport;

  const auto round = [&](const BlockRound& r,
                         std::span<const double> current,
                         std::span<double> next) {
    // One block holds every source, so every in-arc reads the live
    // iterate: the sweep updates `next` in place from a copy of `current`.
    std::copy(current.begin(), current.end(), next.begin());
    params.dangling_mass = r.dangling_mass;
    BlockSweep(factors, rows.offsets(), index, params, no_products, current,
               next, /*partials=*/nullptr);
    return Status::OK();
  };
  return RunBlockIteration(/*gauss_seidel=*/true, transition.DanglingNodes(),
                           teleport, options, round);
}

Result<PagerankResult> SolvePagerankGaussSeidel(
    const CsrGraph& graph, const TransitionMatrix& transition,
    const PagerankOptions& options) {
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  return SolvePagerankGaussSeidel(graph, transition, teleport, options);
}

}  // namespace d2pr
