#include "topk/topk_solver.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "common/string_util.h"
#include "core/push_ppr.h"

namespace d2pr {

namespace {

// Certification slack: an entry is certified when its lower bound is
// within this of clearing every excluded upper bound. Kept well below the
// 1e-9 near-tie tolerance the parity suites grant, so float noise cannot
// flip a verdict the tests would reject.
constexpr double kTieTolerance = 1e-12;

}  // namespace

Result<TopKResult> SolveTopK(const CsrGraph& graph,
                             const TransitionMatrix& transition,
                             const DegreeBoundIndex& bounds,
                             std::span<const double> seed,
                             const TopKOptions& options) {
  const NodeId n = graph.num_nodes();
  if (options.k < 1) {
    return Status::InvalidArgument(
        StrCat("top-k k must be >= 1, got ", options.k));
  }
  if (bounds.num_nodes() != n) {
    return Status::InvalidArgument(
        StrCat("DegreeBoundIndex built for ", bounds.num_nodes(),
               " nodes, graph has ", n));
  }
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

  TopKResult result;
  if (n == 0) {
    result.certified = true;
    result.completed = true;
    return result;
  }

  const double alpha = options.alpha;
  const double floor = options.epsilon;
  const int64_t cap =
      options.max_pushes > 0 ? options.max_pushes : DefaultPushCap(n);
  // Certification schedule. A round costs O(touched), and a fixed
  // interval tuned for the drain regime starves loose-epsilon queries
  // (the whole solve can finish between two checks), so the interval
  // doubles: O(log pushes) rounds, with an early-exit opportunity at
  // every scale.
  int64_t interval = 256;
  const size_t want =
      std::min(static_cast<size_t>(options.k), static_cast<size_t>(n));
  // Seed re-injection only matters when the graph can route mass through
  // a dangling node at all.
  const bool reinject = options.reinject_dangling && bounds.has_dangling();

  std::vector<double> scores(static_cast<size_t>(n), 0.0);
  std::vector<double> residual(seed.begin(), seed.end());

  // Touched set: nodes that ever held score or residual mass. Bounds for
  // everything else reduce to alpha * R * ub_in and are read through the
  // index's sorted order, so certification never scans cold nodes.
  std::vector<uint8_t> touched_bit(static_cast<size_t>(n), 0);
  std::vector<NodeId> touched;
  auto touch = [&](NodeId v) {
    if (!touched_bit[static_cast<size_t>(v)]) {
      touched_bit[static_cast<size_t>(v)] = 1;
      touched.push_back(v);
    }
  };

  // FIFO frontier with floor-gated admission — the same generation
  // discipline as core/push_ppr.cc. A node re-entering the frontier goes
  // to the BACK, so by the time it is processed again an entire
  // generation of neighbors has paid into its residual and one push moves
  // all of it. (A max-heap "largest residual first" frontier was measured
  // at ~12x the pushes on hub-heavy graphs: the hub re-crosses the floor
  // after a handful of spoke payments and is immediately re-pushed with a
  // sliver of the mass a batched push would have moved.)
  std::deque<NodeId> frontier;
  std::vector<uint8_t> in_frontier(static_cast<size_t>(n), 0);
  auto enqueue = [&](NodeId v) {
    if (!in_frontier[static_cast<size_t>(v)]) {
      in_frontier[static_cast<size_t>(v)] = 1;
      frontier.push_back(v);
    }
  };
  std::vector<NodeId> seed_support;
  for (NodeId v = 0; v < n; ++v) {
    const double s = seed[static_cast<size_t>(v)];
    if (s > 0.0) {
      seed_support.push_back(v);
      touch(v);
      if (s > floor) enqueue(v);
    }
  }

  // --- certification ---
  // Bounds from the push invariant, with R recomputed exactly from the
  // live residuals each round so incremental float drift never loosens a
  // certificate.
  std::vector<uint8_t> in_candidate(static_cast<size_t>(n), 0);
  std::vector<NodeId> candidates;
  std::vector<NodeId> scratch;
  auto certify = [&]() -> bool {
    ++result.certification_rounds;
    double mass = 0.0;
    for (NodeId t : touched) mass += residual[static_cast<size_t>(t)];
    result.residual_mass = mass;

    auto eff_bound = [&](NodeId t) {
      double bound = bounds.MaxInProb(t);
      // Under re-injection a dangling node's transition column IS the
      // seed distribution, so seed(t) is a legal single-step
      // in-probability into t and must widen the bound.
      if (reinject) bound = std::max(bound, seed[static_cast<size_t>(t)]);
      return bound;
    };
    auto upper = [&](NodeId t) {
      return scores[static_cast<size_t>(t)] +
             (1.0 - alpha) * residual[static_cast<size_t>(t)] +
             alpha * mass * eff_bound(t);
    };

    // Candidates: the `want` best lower bounds among touched nodes,
    // padded (deterministically, by descending bound) from untouched
    // nodes when fewer than `want` were ever reached.
    scratch = touched;
    const auto by_score = [&](NodeId a, NodeId b) {
      const double sa = scores[static_cast<size_t>(a)];
      const double sb = scores[static_cast<size_t>(b)];
      if (sa != sb) return sa > sb;
      return a < b;
    };
    if (scratch.size() > want) {
      std::partial_sort(scratch.begin(),
                        scratch.begin() + static_cast<ptrdiff_t>(want),
                        scratch.end(), by_score);
      scratch.resize(want);
    } else {
      std::sort(scratch.begin(), scratch.end(), by_score);
    }
    candidates = scratch;
    if (candidates.size() < want) {
      for (NodeId t : bounds.ByBoundDescending()) {
        if (touched_bit[static_cast<size_t>(t)]) continue;
        candidates.push_back(t);
        if (candidates.size() == want) break;
      }
    }
    for (NodeId c : candidates) in_candidate[static_cast<size_t>(c)] = 1;

    double excluded_ub = 0.0;
    for (NodeId t : touched) {
      if (in_candidate[static_cast<size_t>(t)]) continue;
      excluded_ub = std::max(excluded_ub, upper(t));
    }
    for (NodeId t : bounds.ByBoundDescending()) {
      if (in_candidate[static_cast<size_t>(t)] ||
          touched_bit[static_cast<size_t>(t)]) {
        continue;
      }
      // Sorted descending by ub_in, so the first untouched non-candidate
      // dominates every other never-touched node (all have zero score,
      // zero residual, and zero seed mass).
      excluded_ub = std::max(excluded_ub, alpha * mass * bounds.MaxInProb(t));
      break;
    }

    result.entries.clear();
    result.entries.reserve(candidates.size());
    for (NodeId c : candidates) {
      TopKEntry entry;
      entry.node = c;
      entry.lower_bound = scores[static_cast<size_t>(c)];
      entry.upper_bound = upper(c);
      entry.certified =
          entry.lower_bound + kTieTolerance >= excluded_ub;
      result.entries.push_back(entry);
    }
    std::sort(result.entries.begin(), result.entries.end(),
              [](const TopKEntry& a, const TopKEntry& b) {
                if (a.lower_bound != b.lower_bound) {
                  return a.lower_bound > b.lower_bound;
                }
                return a.node < b.node;
              });
    result.uncertainty_gap =
        std::max(0.0, excluded_ub - result.entries.back().lower_bound);
    result.certified = std::all_of(
        result.entries.begin(), result.entries.end(),
        [](const TopKEntry& entry) { return entry.certified; });
    for (NodeId c : candidates) in_candidate[static_cast<size_t>(c)] = 0;
    return result.certified;
  };

  // --- bounded push ---
  const auto targets = graph.targets();
  auto spread = [&](NodeId v, double amount) {
    double& rv = residual[static_cast<size_t>(v)];
    rv += amount;
    touch(v);
    if (rv > floor) enqueue(v);
  };

  int64_t since_certify = 0;
  for (;;) {
    NodeId u = -1;
    while (!frontier.empty()) {
      const NodeId candidate = frontier.front();
      frontier.pop_front();
      in_frontier[static_cast<size_t>(candidate)] = 0;
      if (residual[static_cast<size_t>(candidate)] > floor) {
        u = candidate;
        break;
      }
    }
    if (u < 0) {
      // Frontier drained: every residual is at the floor. Certification
      // may still fail (the caller's epsilon was too loose for this
      // query); the verdict and gap report exactly that.
      result.completed = true;
      certify();
      break;
    }
    if (result.pushes >= cap) {
      result.completed = false;
      certify();
      break;
    }

    double& ru = residual[static_cast<size_t>(u)];
    const double push_mass = ru;
    ru = 0.0;
    ++result.pushes;
    scores[static_cast<size_t>(u)] += (1.0 - alpha) * push_mass;

    if (transition.IsDangling(u)) {
      if (options.reinject_dangling) {
        for (NodeId v : seed_support) {
          spread(v, alpha * push_mass * seed[static_cast<size_t>(v)]);
        }
      }
    } else {
      // Each out-neighbour j receives α·push_mass·c_u·u_j.
      const TransitionMatrix::OutRow row =
          transition.Row(graph, u, alpha * push_mass);
      const EdgeIndex begin = graph.ArcBegin(u);
      const EdgeIndex end = begin + graph.OutDegree(u);
      for (EdgeIndex e = begin; e < end; ++e) {
        spread(targets[static_cast<size_t>(e)], row.Prob(e));
      }
    }

    if (++since_certify >= interval) {
      since_certify = 0;
      interval *= 2;
      if (certify()) {
        result.completed = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace d2pr
