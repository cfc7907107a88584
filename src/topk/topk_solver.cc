#include "topk/topk_solver.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <ranges>
#include <type_traits>
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

// The touched set once the push sweeps: every node.
using AllNodes = std::ranges::iota_view<NodeId, NodeId>;

// Folds value(t) over `nodes` with `op` in four interleaved lanes. Once
// the push sweeps, a certification round folds all |V| nodes twice, and a
// single chain of dependent adds (or maxes) is latency-bound at about
// four cycles a node.
template <typename Nodes, typename Value, typename Op>
double FoldLanes(const Nodes& nodes, Value value, Op op) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= nodes.size(); i += 4) {
    for (size_t j = 0; j < 4; ++j) lane[j] = op(lane[j], value(nodes[i + j]));
  }
  for (; i < nodes.size(); ++i) lane[0] = op(lane[0], value(nodes[i]));
  return op(op(lane[0], lane[1]), op(lane[2], lane[3]));
}

// The `count` nodes of `nodes` with the highest scores (ties to the lower
// id), best first, in one pass over a heap whose top is the worst kept
// node: a node scoring below it costs one load and one comparison. Nodes
// scoring below `floor` are skipped from the start; the caller vouches
// that `count` nodes reach it.
template <typename Nodes>
void SelectBest(const Nodes& nodes, std::span<const double> scores,
                size_t count, double floor, std::vector<NodeId>* best) {
  best->clear();
  const auto before = [&](NodeId a, NodeId b) {
    const double sa = scores[static_cast<size_t>(a)];
    const double sb = scores[static_cast<size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  };
  double cut = floor;  // the worst kept score once `count` are kept
  NodeId cut_node = std::numeric_limits<NodeId>::max();
  auto consider = [&](NodeId t) {
    const double score = scores[static_cast<size_t>(t)];
    if (score < cut || (score == cut && t > cut_node)) return;
    if (best->size() == count) {
      std::pop_heap(best->begin(), best->end(), before);
      best->back() = t;
    } else {
      best->push_back(t);
    }
    std::push_heap(best->begin(), best->end(), before);
    if (best->size() == count) {
      cut_node = best->front();
      cut = scores[static_cast<size_t>(cut_node)];
    }
  };
  if constexpr (std::is_same_v<Nodes, AllNodes>) {
    // Every node, in order: test eight contiguous scores against the cut
    // at once, branch-free, and visit them only when one reaches it.
    const NodeId n = static_cast<NodeId>(nodes.size());
    NodeId t = 0;
    for (; t + 8 <= n; t += 8) {
      bool any = false;
      for (NodeId j = 0; j < 8; ++j) {
        any |= scores[static_cast<size_t>(t + j)] >= cut;
      }
      if (!any) continue;
      for (NodeId j = 0; j < 8; ++j) consider(t + j);
    }
    for (; t < n; ++t) consider(t);
  } else {
    for (NodeId t : nodes) consider(t);
  }
  std::sort_heap(best->begin(), best->end(), before);
}

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
  const double alpha = options.alpha;
  D2PR_ASSIGN_OR_RETURN(
      PushRun run, PushRun::Start(graph, transition, seed, alpha,
                                  options.epsilon, options.reinject_dangling));

  TopKResult result;
  if (n == 0) {
    result.certified = true;
    result.completed = true;
    return result;
  }

  const int64_t cap =
      options.max_pushes > 0 ? options.max_pushes : DefaultPushCap(n);
  const size_t want =
      std::min(static_cast<size_t>(options.k), static_cast<size_t>(n));
  // Seed re-injection only matters when the graph can route mass through
  // a dangling node at all.
  const bool reinject = options.reinject_dangling && bounds.has_dangling();
  const std::span<const double> scores = run.scores();
  const std::span<const double> residual = run.residual();

  // --- certification ---
  // Bounds from the push invariant, with R recomputed exactly from the
  // live residuals each round so incremental float drift never loosens a
  // certificate. A round reads the touched nodes, those that ever held
  // score or residual mass, which the push run lists while its frontier
  // is local. Bounds for everything else reduce to alpha * R * ub_in and
  // are read through the index's sorted order, so certification never
  // scans cold nodes. Once the run sweeps, every node counts as touched,
  // and a round reads the score and residual arrays straight through.
  std::vector<uint8_t> in_candidate(static_cast<size_t>(n), 0);
  std::vector<NodeId> selected;  // the best want + 1 touched nodes
  std::vector<NodeId> candidates;
  // A round that is not the last may stop at the first proof that the set
  // does not certify yet; the last round fills in every entry.
  auto certify_over = [&](const auto& touched, bool last) -> bool {
    const double mass = FoldLanes(
        touched, [&](NodeId t) { return residual[static_cast<size_t>(t)]; },
        std::plus<double>());
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

    // The cheapest proof that the set does not certify yet: one of the
    // want + 1 nodes of largest ub_in is a non-candidate, whose upper
    // bound is at least alpha * R * ub_in, and no candidate's lower bound
    // exceeds the top score. While R is large this skips the selection.
    if (!last && want < static_cast<size_t>(n)) {
      const double top_score = FoldLanes(
          touched, [&](NodeId t) { return scores[static_cast<size_t>(t)]; },
          [](double a, double b) { return std::max(a, b); });
      if (top_score + kTieTolerance <
          alpha * mass * bounds.MaxInProb(bounds.ByBoundDescending()[want])) {
        return false;
      }
    }

    // Candidates: the `want` best lower bounds among touched nodes,
    // padded (deterministically, by descending bound) from untouched
    // nodes when fewer than `want` were ever reached. Selecting one more
    // yields the runner-up, a non-candidate whose upper bound alone can
    // show the set does not certify yet. Scores only grow and touched
    // nodes stay touched, so every node of last round's selection still
    // scores at least `floor`, and nothing below it can place now.
    double floor = -1.0;
    if (selected.size() == want + 1) {
      floor = scores[static_cast<size_t>(selected.front())];
      for (NodeId t : selected) {
        floor = std::min(floor, scores[static_cast<size_t>(t)]);
      }
    }
    SelectBest(touched, scores, want + 1, floor, &selected);
    candidates.assign(selected.begin(),
                      selected.begin() + static_cast<ptrdiff_t>(
                                             std::min(want, selected.size())));
    if (!last && selected.size() > want &&
        scores[static_cast<size_t>(candidates.back())] + kTieTolerance <
            upper(selected.back())) {
      return false;
    }
    if (candidates.size() < want) {
      for (NodeId t : bounds.ByBoundDescending()) {
        if (run.touched(t)) continue;
        candidates.push_back(t);
        if (candidates.size() == want) break;
      }
    }
    for (NodeId c : candidates) in_candidate[static_cast<size_t>(c)] = 1;

    // Every upper bound is >= 0, so a candidate folds in as 0.
    double excluded_ub = FoldLanes(
        touched,
        [&](NodeId t) {
          return in_candidate[static_cast<size_t>(t)] ? 0.0 : upper(t);
        },
        [](double a, double b) { return std::max(a, b); });
    // Sorted descending by ub_in, so the first untouched non-candidate
    // dominates every other never-touched node (all have zero score, zero
    // residual, and zero seed mass).
    for (NodeId t : bounds.ByBoundDescending()) {
      if (run.sweeping()) break;  // no node is untouched
      if (in_candidate[static_cast<size_t>(t)] || run.touched(t)) continue;
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
  auto certify = [&](bool last) {
    ++result.certification_rounds;
    return run.sweeping()
               ? certify_over(AllNodes(0, n), last)
               : certify_over(run.touched_nodes(), last);
  };

  // --- bounded push ---
  // The push is the plain one (PushRun): a FIFO frontier while the query
  // is local — a node re-entering goes to the back, so one push moves a
  // whole generation of payments, where a max-heap "largest residual
  // first" order costs ~12x the pushes on hub-heavy graphs — and passes
  // in node order once the frontier holds |V|/64 nodes.
  // Certification runs between pushes on a doubling schedule: after 256,
  // then 512, 1024, ... more pushes. A round costs O(touched), and a
  // fixed interval tuned for the drain regime starves loose-epsilon
  // queries (the whole solve can finish between two checks), so the
  // interval doubles: O(log pushes) rounds, with an early-exit
  // opportunity at every scale.
  int64_t interval = 256;
  for (;;) {
    if (run.Advance(std::min(cap, run.pushes() + interval))) {
      // Every residual is at the floor. Certification may still fail
      // (the caller's epsilon was too loose for this query); the verdict
      // and gap report exactly that.
      result.completed = true;
      certify(/*last=*/true);
      break;
    }
    if (run.pushes() >= cap) {
      result.completed = false;
      certify(/*last=*/true);
      break;
    }
    interval *= 2;
    if (certify(/*last=*/false)) {
      result.completed = true;
      break;
    }
  }
  result.pushes = run.pushes();
  result.passes = run.passes();
  return result;
}

}  // namespace d2pr
