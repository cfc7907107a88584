#include "api/rank_request.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/string_util.h"

namespace d2pr {

Status ValidateRankRequestParameters(const RankRequest& request) {
  // Mirror the transition builder's parameter checks before any cache is
  // touched: the cache key folds beta to 0 on unweighted graphs, which
  // must not let an out-of-range beta hit a cached matrix instead of
  // erroring.
  if (!std::isfinite(request.p)) {
    return Status::InvalidArgument(
        StrCat("de-coupling weight p must be finite, got ", request.p));
  }
  if (!(request.beta >= 0.0 && request.beta <= 1.0)) {  // rejects NaN too
    return Status::InvalidArgument(
        StrCat("beta must lie in [0, 1], got ", request.beta));
  }
  // Pre-check the solver knobs too (the solvers re-validate; messages
  // mirror theirs): an invalid request must not pay an O(|E|) transition
  // build nor insert an entry that evicts a hot one.
  if (!(request.alpha >= 0.0) || request.alpha >= 1.0) {
    return Status::InvalidArgument(
        StrCat("alpha must lie in [0, 1), got ", request.alpha));
  }
  if (request.top_k < 0) {
    return Status::InvalidArgument(
        StrCat("top_k must be >= 0 (0 = exact serving), got ",
               request.top_k));
  }
  if (request.method == SolverMethod::kForwardPush) {
    if (!(request.push_epsilon > 0.0)) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    if (request.dangling == DanglingPolicy::kSelfLoop) {
      return Status::InvalidArgument(
          "forward push does not support DanglingPolicy::kSelfLoop");
    }
  } else {
    if (!(request.tolerance > 0.0)) {
      return Status::InvalidArgument(
          StrCat("tolerance must be positive, got ", request.tolerance));
    }
    if (request.max_iterations < 1) {
      return Status::InvalidArgument(
          StrCat("max_iterations must be >= 1, got ",
                 request.max_iterations));
    }
  }
  return Status::OK();
}

std::vector<RankedEntry> TruncateToTopK(std::span<const double> scores,
                                        int top_k) {
  std::vector<RankedEntry> entries;
  if (top_k <= 0 || scores.empty()) return entries;
  const size_t want = std::min(static_cast<size_t>(top_k), scores.size());
  std::vector<NodeId> order(scores.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(want),
                    order.end(), [&scores](NodeId a, NodeId b) {
                      const double sa = scores[static_cast<size_t>(a)];
                      const double sb = scores[static_cast<size_t>(b)];
                      if (sa != sb) return sa > sb;
                      return a < b;
                    });
  entries.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    entries.push_back({.node = order[i],
                       .score = scores[static_cast<size_t>(order[i])],
                       .certified = true});
  }
  return entries;
}

}  // namespace d2pr
