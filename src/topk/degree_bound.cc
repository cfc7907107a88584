#include "topk/degree_bound.h"

#include <algorithm>
#include <numeric>

namespace d2pr {

DegreeBoundIndex DegreeBoundIndex::Build(const CsrGraph& graph,
                                         const TransitionMatrix& transition) {
  const NodeId n = graph.num_nodes();
  DegreeBoundIndex index;
  index.max_in_prob_.assign(static_cast<size_t>(n), 0.0);

  // Without the sink and blend terms an arc's probability is c_u·u_t, so
  // the bound is u_t·max c_u over t's in-arcs: rounding is monotone, so
  // the per-arc maximum below is that same double.
  const EdgeIndex* offsets = graph.offsets().data();
  const NodeId* targets = graph.targets().data();
  double* max_in_prob = index.max_in_prob_.data();
  transition.VisitOutRows(graph, [&](const auto rows) {
    for (NodeId u = 0; u < n; ++u) {
      if (transition.IsDangling(u)) {
        index.has_dangling_ = true;
        continue;
      }
      const auto row = rows.At(u);
      for (EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
        const NodeId t = targets[static_cast<size_t>(e)];
        double& bound = max_in_prob[static_cast<size_t>(t)];
        bound = std::max(bound, rows.Prob(row, e, t));
      }
    }
  });

  index.order_.resize(static_cast<size_t>(n));
  std::iota(index.order_.begin(), index.order_.end(), NodeId{0});
  std::sort(index.order_.begin(), index.order_.end(),
            [&](NodeId a, NodeId b) {
              const double ba = index.max_in_prob_[static_cast<size_t>(a)];
              const double bb = index.max_in_prob_[static_cast<size_t>(b)];
              if (ba != bb) return ba > bb;
              return a < b;
            });
  return index;
}

}  // namespace d2pr
