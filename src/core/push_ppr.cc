#include "core/push_ppr.h"

#include <cmath>
#include <deque>

#include "common/string_util.h"

namespace d2pr {

int64_t DefaultPushCap(NodeId num_nodes) {
  return int64_t{512} * std::max<int64_t>(num_nodes, 1024);
}

Result<PushResult> ForwardPushPpr(const CsrGraph& graph,
                                  const TransitionMatrix& transition,
                                  std::span<const double> seed,
                                  const PushOptions& options) {
  const NodeId n = graph.num_nodes();
  if (seed.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument(
        StrCat("seed size ", seed.size(), " != num nodes ", n));
  }
  if (!(options.alpha >= 0.0) || options.alpha >= 1.0) {
    return Status::InvalidArgument(
        StrCat("alpha must lie in [0, 1), got ", options.alpha));
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  double seed_sum = 0.0;
  for (double s : seed) {
    if (s < 0.0) return Status::InvalidArgument("seed entries must be >= 0");
    seed_sum += s;
  }
  if (n > 0 && std::abs(seed_sum - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        StrCat("seed must sum to 1, got ", seed_sum));
  }

  PushResult result;
  result.scores.assign(static_cast<size_t>(n), 0.0);
  result.residual.assign(seed.begin(), seed.end());
  if (n == 0) {
    result.completed = true;
    return result;
  }

  const int64_t max_pushes =
      options.max_pushes > 0 ? options.max_pushes : DefaultPushCap(n);

  std::deque<NodeId> queue;
  std::vector<uint8_t> queued(static_cast<size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (result.residual[static_cast<size_t>(v)] > options.epsilon) {
      queue.push_back(v);
      queued[static_cast<size_t>(v)] = 1;
    }
  }

  const auto targets = graph.targets();
  while (!queue.empty() && result.pushes < max_pushes) {
    const NodeId u = queue.front();
    queue.pop_front();
    queued[static_cast<size_t>(u)] = 0;
    double& ru = result.residual[static_cast<size_t>(u)];
    if (ru <= options.epsilon) continue;
    const double mass = ru;
    ru = 0.0;
    ++result.pushes;
    result.scores[static_cast<size_t>(u)] += (1.0 - options.alpha) * mass;

    auto spread = [&](NodeId v, double amount) {
      double& rv = result.residual[static_cast<size_t>(v)];
      rv += amount;
      if (rv > options.epsilon && !queued[static_cast<size_t>(v)]) {
        queue.push_back(v);
        queued[static_cast<size_t>(v)] = 1;
      }
    };

    if (transition.IsDangling(u)) {
      if (options.reinject_dangling) {
        // Route the walk mass through the seed distribution, as the
        // power-iteration solver's kTeleport policy does.
        for (NodeId v = 0; v < n; ++v) {
          const double share = seed[static_cast<size_t>(v)];
          if (share > 0.0) spread(v, options.alpha * mass * share);
        }
      }
      continue;
    }
    // Each out-neighbour j receives α·mass·c_u·u_j.
    const TransitionMatrix::OutRow row =
        transition.Row(graph, u, options.alpha * mass);
    const EdgeIndex begin = graph.ArcBegin(u);
    const EdgeIndex end = begin + graph.OutDegree(u);
    for (EdgeIndex e = begin; e < end; ++e) {
      spread(targets[static_cast<size_t>(e)], row.Prob(e));
    }
  }

  result.completed = queue.empty();
  return result;
}

Result<PushResult> ForwardPushPpr(const CsrGraph& graph,
                                  const TransitionMatrix& transition,
                                  NodeId seed, const PushOptions& options) {
  if (seed < 0 || seed >= graph.num_nodes()) {
    return Status::InvalidArgument(StrCat("seed ", seed, " out of range"));
  }
  std::vector<double> dist(static_cast<size_t>(graph.num_nodes()), 0.0);
  dist[static_cast<size_t>(seed)] = 1.0;
  return ForwardPushPpr(graph, transition, dist, options);
}

}  // namespace d2pr
