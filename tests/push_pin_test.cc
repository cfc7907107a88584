// A bitwise pin for the push: ForwardPushPpr, SolveTopK and
// DegreeBoundIndex::Build must give exactly the bits of a reference copy
// of the push as it was written before its optional transition terms
// were decided once per call. The reference below forms every arc's
// probability the old way, testing the sink and blend terms on every arc
// (ReferenceOutRow::Prob), and runs the old frontier and certification
// code unchanged: a FIFO while the frontier is local, node-order passes
// once it holds |V|/64 nodes, and top-k rounds that fold the residual
// mass and the top score in two separate passes. The cases cover every
// (sink, blend) pair of the transition, re-injection on and off, and
// runs that stay local as well as runs that go global.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <ranges>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/push_ppr.h"
#include "core/transition.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "topk/degree_bound.h"
#include "topk/topk_solver.h"

namespace d2pr {
namespace {

// --- The reference: the push as it was, kept apart from the library. ---

/// One out-row's factors, every probability multiplied by a scale; an
/// arc's probability tests the sink and blend terms on every call.
struct ReferenceOutRow {
  double Prob(EdgeIndex e) const {
    const size_t arc = static_cast<size_t>(e);
    const size_t j = static_cast<size_t>(targets[arc]);
    double prob = (sink != nullptr && sink[j] ? sink_c : c) * u[j];
    if (weights != nullptr) prob += weights[arc] * blend_c;
    return prob;
  }

  const NodeId* targets = nullptr;
  const double* u = nullptr;
  const uint8_t* sink = nullptr;     // null without a sink term
  const double* weights = nullptr;   // null when beta = 0
  double c = 0.0;
  double sink_c = 0.0;
  double blend_c = 0.0;
};

ReferenceOutRow ReferenceRow(const TransitionMatrix& transition,
                             const CsrGraph& graph, NodeId src,
                             double scale = 1.0) {
  const TransitionFactors& f = transition.factors();
  const size_t i = static_cast<size_t>(src);
  ReferenceOutRow row;
  row.targets = graph.targets().data();
  row.u = f.u.data();
  row.c = scale * f.c[i];
  if (f.has_sink()) {
    row.sink = f.sink.data();
    row.sink_c = scale * f.sink_c[i];
  }
  if (f.has_blend()) {
    row.weights = graph.weights().data();
    row.blend_c = scale * f.blend_c[i];
  }
  return row;
}

/// The degree bounds, each the maximum of its in-arcs' probabilities.
std::vector<double> ReferenceBounds(const CsrGraph& graph,
                                    const TransitionMatrix& transition) {
  std::vector<double> bound(static_cast<size_t>(graph.num_nodes()), 0.0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (transition.IsDangling(u)) continue;
    const ReferenceOutRow row = ReferenceRow(transition, graph, u);
    const EdgeIndex begin = graph.ArcBegin(u);
    const EdgeIndex end = begin + graph.OutDegree(u);
    for (EdgeIndex e = begin; e < end; ++e) {
      double& b = bound[static_cast<size_t>(
          graph.targets()[static_cast<size_t>(e)])];
      b = std::max(b, row.Prob(e));
    }
  }
  return bound;
}

/// The push step: FIFO while local, node-order passes once the frontier
/// holds |V|/64 nodes. The caller passes valid inputs.
class ReferencePush {
 public:
  ReferencePush(const CsrGraph& graph, const TransitionMatrix& transition,
                std::span<const double> seed, double alpha, double epsilon,
                bool reinject_dangling)
      : graph_(&graph),
        transition_(&transition),
        seed_(seed),
        alpha_(alpha),
        epsilon_(epsilon),
        reinject_dangling_(reinject_dangling),
        scores_(seed.size(), 0.0),
        residual_(seed.begin(), seed.end()),
        state_(seed.size(), 0) {
    for (size_t v = 0; v < seed.size(); ++v) {
      if (!(seed[v] > 0.0)) continue;
      seed_support_.push_back(static_cast<NodeId>(v));
      state_[v] = kTouched;
      if (seed[v] > epsilon) {
        fifo_.push_back(static_cast<NodeId>(v));
        state_[v] |= kQueued;
      }
    }
    touched_ = seed_support_;
  }

  bool Advance(int64_t limit) {
    if (drained_) return true;
    drained_ = sweeping_ ? AdvancePasses(limit) : AdvanceLocal(limit);
    return drained_;
  }

  std::span<const double> scores() const { return scores_; }
  std::span<const double> residual() const { return residual_; }
  int64_t pushes() const { return pushes_; }
  int64_t passes() const { return passes_; }
  bool sweeping() const { return sweeping_; }
  std::span<const NodeId> touched_nodes() const { return touched_; }
  bool touched(NodeId v) const {
    return sweeping_ || (state_[static_cast<size_t>(v)] & kTouched) != 0;
  }

 private:
  struct Kernel {
    explicit Kernel(ReferencePush& run)
        : scores(run.scores_.data()),
          residual(run.residual_.data()),
          dangling(run.transition_->dangling().data()),
          targets(run.graph_->targets().data()),
          graph(run.graph_),
          transition(run.transition_),
          seed(run.seed_),
          support(run.seed_support_),
          alpha(run.alpha_),
          reinject(run.reinject_dangling_) {}

    template <typename Receive>
    void Push(NodeId u, double mass, Receive&& receive) const {
      scores[u] += (1.0 - alpha) * mass;
      if (dangling[u]) {
        if (!reinject) return;
        for (NodeId v : support) {
          residual[v] += alpha * mass * seed[static_cast<size_t>(v)];
          receive(v);
        }
        return;
      }
      const ReferenceOutRow row =
          ReferenceRow(*transition, *graph, u, alpha * mass);
      const EdgeIndex begin = graph->ArcBegin(u);
      const EdgeIndex end = begin + graph->OutDegree(u);
      for (EdgeIndex e = begin; e < end; ++e) {
        const NodeId v = targets[static_cast<size_t>(e)];
        residual[v] += row.Prob(e);
        receive(v);
      }
    }

    double* scores;
    double* residual;
    const uint8_t* dangling;
    const NodeId* targets;
    const CsrGraph* graph;
    const TransitionMatrix* transition;
    std::span<const double> seed;
    std::span<const NodeId> support;
    double alpha;
    bool reinject;
  };

  bool AdvanceLocal(int64_t limit) {
    const Kernel kernel(*this);
    double* const residual = kernel.residual;
    uint8_t* const state = state_.data();
    const double epsilon = epsilon_;
    const size_t global_at = std::max<size_t>(1, scores_.size() / 64);
    int64_t pushes = pushes_;
    auto enqueue = [&](NodeId v) {
      const uint8_t bits = state[v];
      if (bits & kQueued) return;
      if (bits == 0) touched_.push_back(v);
      if (residual[v] > epsilon) {
        state[v] = kQueued | kTouched;
        fifo_.push_back(v);
      } else if (bits == 0) {
        state[v] = kTouched;
      }
    };

    bool drained = false;
    for (;;) {
      const size_t live = fifo_.size() - fifo_head_;
      if (live == 0) {
        drained = true;
        break;
      }
      if (live >= global_at) {
        sweeping_ = true;
        fifo_ = {};
        fifo_head_ = 0;
        state_ = {};
        touched_ = {};
        pushes_ = pushes;
        return AdvancePasses(limit);
      }
      if (pushes >= limit) break;
      const NodeId u = fifo_[fifo_head_++];
      if (fifo_head_ > live) {
        fifo_.erase(fifo_.begin(),
                    fifo_.begin() + static_cast<ptrdiff_t>(fifo_head_));
        fifo_head_ = 0;
      }
      state[u] = kTouched;
      const double mass = residual[u];
      residual[u] = 0.0;
      ++pushes;
      kernel.Push(u, mass, enqueue);
    }
    pushes_ = pushes;
    return drained;
  }

  bool AdvancePasses(int64_t limit) {
    const Kernel kernel(*this);
    double* const residual = kernel.residual;
    const double epsilon = epsilon_;
    const NodeId n = static_cast<NodeId>(scores_.size());
    int64_t pushes = pushes_;
    bool pass_pushed = pass_pushed_;
    for (;;) {
      for (NodeId u = cursor_; u < n; ++u) {
        const double mass = residual[u];
        if (mass <= epsilon) continue;
        if (pushes >= limit) {
          cursor_ = u;
          pushes_ = pushes;
          pass_pushed_ = pass_pushed;
          return false;
        }
        residual[u] = 0.0;
        ++pushes;
        pass_pushed = true;
        kernel.Push(u, mass, [](NodeId) {});
      }
      ++passes_;
      cursor_ = 0;
      if (!pass_pushed) break;
      pass_pushed = false;
    }
    pushes_ = pushes;
    return true;
  }

  const CsrGraph* graph_;
  const TransitionMatrix* transition_;
  std::span<const double> seed_;
  double alpha_;
  double epsilon_;
  bool reinject_dangling_;
  std::vector<double> scores_;
  std::vector<double> residual_;
  std::vector<NodeId> seed_support_;
  int64_t pushes_ = 0;
  int64_t passes_ = 0;
  bool drained_ = false;
  static constexpr uint8_t kQueued = 1;
  static constexpr uint8_t kTouched = 2;
  std::vector<NodeId> fifo_;
  size_t fifo_head_ = 0;
  std::vector<uint8_t> state_;
  std::vector<NodeId> touched_;
  bool sweeping_ = false;
  NodeId cursor_ = 0;
  bool pass_pushed_ = false;
};

constexpr double kTieTolerance = 1e-12;
using AllNodes = std::ranges::iota_view<NodeId, NodeId>;

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

// The solver's selection without its eight-wide skip over unplaceable
// scores, which changes no choice.
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
  double cut = floor;
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
  for (NodeId t : nodes) consider(t);
  std::sort_heap(best->begin(), best->end(), before);
}

/// The bounded top-k solver over ReferencePush, certifying on the same
/// doubling schedule; R and the top score are two separate folds.
TopKResult ReferenceTopK(const CsrGraph& graph,
                         const TransitionMatrix& transition,
                         const DegreeBoundIndex& bounds,
                         std::span<const double> seed,
                         const TopKOptions& options) {
  const NodeId n = graph.num_nodes();
  const double alpha = options.alpha;
  ReferencePush run(graph, transition, seed, alpha, options.epsilon,
                    options.reinject_dangling);
  TopKResult result;
  const int64_t cap =
      options.max_pushes > 0 ? options.max_pushes : DefaultPushCap(n);
  const size_t want =
      std::min(static_cast<size_t>(options.k), static_cast<size_t>(n));
  const bool reinject = options.reinject_dangling && bounds.has_dangling();
  const std::span<const double> scores = run.scores();
  const std::span<const double> residual = run.residual();

  std::vector<uint8_t> in_candidate(static_cast<size_t>(n), 0);
  std::vector<NodeId> selected;
  std::vector<NodeId> candidates;
  auto certify_over = [&](const auto& touched, bool last) -> bool {
    const double mass = FoldLanes(
        touched, [&](NodeId t) { return residual[static_cast<size_t>(t)]; },
        std::plus<double>());
    result.residual_mass = mass;

    auto eff_bound = [&](NodeId t) {
      double bound = bounds.MaxInProb(t);
      if (reinject) bound = std::max(bound, seed[static_cast<size_t>(t)]);
      return bound;
    };
    auto upper = [&](NodeId t) {
      return scores[static_cast<size_t>(t)] +
             (1.0 - alpha) * residual[static_cast<size_t>(t)] +
             alpha * mass * eff_bound(t);
    };

    if (!last && want < static_cast<size_t>(n)) {
      const double top_score = FoldLanes(
          touched, [&](NodeId t) { return scores[static_cast<size_t>(t)]; },
          [](double a, double b) { return std::max(a, b); });
      if (top_score + kTieTolerance <
          alpha * mass * bounds.MaxInProb(bounds.ByBoundDescending()[want])) {
        return false;
      }
    }

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

    double excluded_ub = FoldLanes(
        touched,
        [&](NodeId t) {
          return in_candidate[static_cast<size_t>(t)] ? 0.0 : upper(t);
        },
        [](double a, double b) { return std::max(a, b); });
    for (NodeId t : bounds.ByBoundDescending()) {
      if (run.sweeping()) break;
      if (in_candidate[static_cast<size_t>(t)] || run.touched(t)) continue;
      excluded_ub = std::max(excluded_ub, alpha * mass * bounds.MaxInProb(t));
      break;
    }

    result.entries.clear();
    for (NodeId c : candidates) {
      TopKEntry entry;
      entry.node = c;
      entry.lower_bound = scores[static_cast<size_t>(c)];
      entry.upper_bound = upper(c);
      entry.certified = entry.lower_bound + kTieTolerance >= excluded_ub;
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
    return run.sweeping() ? certify_over(AllNodes(0, n), last)
                          : certify_over(run.touched_nodes(), last);
  };

  int64_t interval = 256;
  for (;;) {
    if (run.Advance(std::min(cap, run.pushes() + interval))) {
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

// --- The cases. ---

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A Barabási–Albert graph's arcs, directed or not, weighted or not. A
/// directed graph keeps each node's out-arcs or none, so about a quarter
/// of its nodes dangle: metric 0, the sink term's destinations.
CsrGraph PinGraph(bool directed, bool weighted, uint64_t seed) {
  Rng rng(seed);
  auto base = BarabasiAlbert(4000, 3, &rng);
  EXPECT_TRUE(base.ok());
  GraphBuilder builder(base->num_nodes(),
                       directed ? GraphKind::kDirected
                                : GraphKind::kUndirected,
                       weighted);
  for (NodeId u = 0; u < base->num_nodes(); ++u) {
    if (directed && rng.Uniform() < 0.25) continue;
    for (NodeId v : base->OutNeighbors(u)) {
      if (!directed && v < u) continue;  // each undirected edge once
      const double weight = weighted ? 0.5 + 3.0 * rng.Uniform() : 1.0;
      EXPECT_TRUE(builder.AddEdge(u, v, weight).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

struct PinCase {
  const char* name;
  bool directed;
  bool weighted;
  double p;
  double beta;
};

TEST(PushPinTest, PushTopKAndBoundsKeepTheReferenceBits) {
  const PinCase cases[] = {
      {"undirected", false, false, 0.5, 0.0},
      {"directed sinks p>0", true, false, 0.8, 0.0},
      {"directed sinks p<0", true, false, -0.6, 0.0},
      {"weighted beta=0", false, true, 0.5, 0.0},
      {"weighted beta=0.4", false, true, 0.5, 0.4},
      {"directed weighted sinks beta=0.4", true, true, 0.7, 0.4},
  };
  bool saw_terms[2][2] = {};  // [has_sink][has_blend]
  bool saw_local = false;
  bool saw_global = false;
  int64_t runs = 0;
  for (const PinCase& pin : cases) {
    const CsrGraph graph = PinGraph(pin.directed, pin.weighted, 11);
    auto transition =
        TransitionMatrix::Build(graph, {.p = pin.p, .beta = pin.beta});
    ASSERT_TRUE(transition.ok()) << transition.status().ToString();
    saw_terms[transition->factors().has_sink()]
             [transition->factors().has_blend()] = true;

    const DegreeBoundIndex bounds = DegreeBoundIndex::Build(graph, *transition);
    const std::vector<double> want_bounds =
        ReferenceBounds(graph, *transition);
    for (NodeId t = 0; t < graph.num_nodes(); ++t) {
      ASSERT_TRUE(SameBits(bounds.MaxInProb(t),
                           want_bounds[static_cast<size_t>(t)]))
          << pin.name << " bound of node " << t;
    }

    const NodeId n = graph.num_nodes();
    std::vector<double> point(static_cast<size_t>(n), 0.0);
    point[static_cast<size_t>(n - 7)] = 1.0;
    std::vector<double> spread(static_cast<size_t>(n), 0.0);
    for (NodeId v : {NodeId{3}, NodeId{900}, NodeId{2500}}) {
      spread[static_cast<size_t>(v)] = 1.0 / 3.0;
    }
    // Loose and strong teleport keep a point seed local; tight epsilon
    // at alpha 0.85 drives every seed global.
    struct Regime {
      double alpha;
      double epsilon;
      int64_t max_pushes;
    };
    const Regime regimes[] = {
        {0.3, 1e-3, -1}, {0.85, 1e-6, -1}, {0.85, 1e-6, 5000}};
    for (const std::vector<double>* seed : {&point, &spread}) {
      for (const Regime& regime : regimes) {
        for (bool reinject : {true, false}) {
          SCOPED_TRACE(StrCat(pin.name, seed == &point ? " point" : " spread",
                              " alpha=", regime.alpha, " eps=",
                              regime.epsilon, " cap=", regime.max_pushes,
                              reinject ? " reinject" : " drop"));
          PushOptions push;
          push.alpha = regime.alpha;
          push.epsilon = regime.epsilon;
          push.max_pushes = regime.max_pushes;
          push.reinject_dangling = reinject;
          auto got = ForwardPushPpr(graph, *transition, *seed, push);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ReferencePush want(graph, *transition, *seed, push.alpha,
                             push.epsilon, reinject);
          const bool completed = want.Advance(
              push.max_pushes > 0 ? push.max_pushes : DefaultPushCap(n));
          EXPECT_TRUE(SameBits(got->scores, want.scores()));
          EXPECT_TRUE(SameBits(got->residual, want.residual()));
          EXPECT_EQ(got->pushes, want.pushes());
          EXPECT_EQ(got->passes, want.passes());
          EXPECT_EQ(got->completed, completed);
          saw_local = saw_local || (completed && got->passes == 0);
          saw_global = saw_global || got->passes > 0;

          TopKOptions topk;
          topk.k = 10;
          topk.alpha = regime.alpha;
          topk.epsilon = regime.epsilon;
          topk.max_pushes = regime.max_pushes;
          topk.reinject_dangling = reinject;
          auto ranked = SolveTopK(graph, *transition, bounds, *seed, topk);
          ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
          const TopKResult reference =
              ReferenceTopK(graph, *transition, bounds, *seed, topk);
          ASSERT_EQ(ranked->entries.size(), reference.entries.size());
          for (size_t i = 0; i < reference.entries.size(); ++i) {
            const TopKEntry& a = ranked->entries[i];
            const TopKEntry& b = reference.entries[i];
            EXPECT_EQ(a.node, b.node) << "entry " << i;
            EXPECT_TRUE(SameBits(a.lower_bound, b.lower_bound)) << i;
            EXPECT_TRUE(SameBits(a.upper_bound, b.upper_bound)) << i;
            EXPECT_EQ(a.certified, b.certified) << i;
          }
          EXPECT_TRUE(
              SameBits(ranked->uncertainty_gap, reference.uncertainty_gap));
          EXPECT_TRUE(
              SameBits(ranked->residual_mass, reference.residual_mass));
          EXPECT_EQ(ranked->pushes, reference.pushes);
          EXPECT_EQ(ranked->passes, reference.passes);
          EXPECT_EQ(ranked->certification_rounds,
                    reference.certification_rounds);
          EXPECT_EQ(ranked->certified, reference.certified);
          EXPECT_EQ(ranked->completed, reference.completed);
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 6 * 2 * 3 * 2);
  // Every instantiation of the spread loop ran, in both frontier phases.
  for (int sink : {0, 1}) {
    for (int blend : {0, 1}) {
      EXPECT_TRUE(saw_terms[sink][blend]) << "sink " << sink << " blend "
                                          << blend;
    }
  }
  EXPECT_TRUE(saw_local);
  EXPECT_TRUE(saw_global);
}

}  // namespace
}  // namespace d2pr
