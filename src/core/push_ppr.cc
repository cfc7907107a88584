#include "core/push_ppr.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace d2pr {

namespace {

// The frontier is global once it holds |V| / kGlobalFrontierDivisor
// nodes. On BA(100k, 4) at p = 0.5 (one pinned core), a local query
// (alpha 0.3, epsilon 1e-3) never reaches this point and keeps the FIFO's
// 0.28 ms, where passes from the first push take 0.40-0.48 ms; a query at
// alpha 0.85, epsilon 1e-5 crosses it and takes 1.8 ms, where a switch at
// |V| / 4 never fires and the FIFO takes 3.0 ms.
constexpr size_t kGlobalFrontierDivisor = 64;

}  // namespace

int64_t DefaultPushCap(NodeId num_nodes) {
  return int64_t{512} * std::max<int64_t>(num_nodes, 1024);
}

Result<PushRun> PushRun::Start(const CsrGraph& graph,
                               const TransitionMatrix& transition,
                               std::span<const double> seed, double alpha,
                               double epsilon, bool reinject_dangling) {
  const NodeId n = graph.num_nodes();
  if (seed.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument(
        StrCat("seed size ", seed.size(), " != num nodes ", n));
  }
  if (!(alpha >= 0.0) || alpha >= 1.0) {
    return Status::InvalidArgument(
        StrCat("alpha must lie in [0, 1), got ", alpha));
  }
  if (!(epsilon > 0.0)) {
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
  return PushRun(graph, transition, seed, alpha, epsilon, reinject_dangling);
}

PushRun::PushRun(const CsrGraph& graph, const TransitionMatrix& transition,
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

bool PushRun::Advance(int64_t limit) {
  if (drained_) return true;
  drained_ = transition_->VisitOutRows(*graph_, [&](const auto& rows) {
    return sweeping_ ? AdvancePasses(rows, limit) : AdvanceLocal(rows, limit);
  });
  return drained_;
}

// The state one push reads, copied out of the run into a local: the
// state-byte stores of the local phase may alias any member, so a loop
// reading members would reload them on every arc. `Rows` is the
// transition's OutRows, whose terms are fixed for the whole call.
template <typename Rows>
struct PushRun::Kernel {
  Kernel(PushRun& run, const Rows& out_rows)
      : scores(run.scores_.data()),
        residual(run.residual_.data()),
        dangling(run.transition_->dangling().data()),
        offsets(run.graph_->offsets().data()),
        targets(run.graph_->targets().data()),
        rows(out_rows),
        seed(run.seed_),
        support(run.seed_support_),
        alpha(run.alpha_),
        reinject(run.reinject_dangling_) {}

  // One push of `mass` from `u`, whose residual the caller has zeroed:
  // (1-α)·mass into the estimate, α·mass along u's out-row (or through
  // the seed when u dangles), each receiving node handed to `receive`.
  // The one spread loop of both frontier phases.
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
    // Each out-neighbour j receives α·mass·c_u·u_j.
    const typename Rows::Row row = rows.At(u, alpha * mass);
    const EdgeIndex end = offsets[u + 1];
    for (EdgeIndex e = offsets[u]; e < end; ++e) {
      const NodeId v = targets[static_cast<size_t>(e)];
      residual[v] += rows.Prob(row, e, v);
      receive(v);
    }
  }

  double* scores;
  double* residual;
  const uint8_t* dangling;
  const EdgeIndex* offsets;
  const NodeId* targets;
  Rows rows;
  std::span<const double> seed;
  std::span<const NodeId> support;
  double alpha;
  bool reinject;
};

template <typename Rows>
bool PushRun::AdvanceLocal(const Rows& rows, int64_t limit) {
  const Kernel<Rows> kernel(*this, rows);
  double* const residual = kernel.residual;
  uint8_t* const state = state_.data();
  const double epsilon = epsilon_;
  const size_t global_at =
      std::max<size_t>(1, scores_.size() / kGlobalFrontierDivisor);
  int64_t pushes = pushes_;
  auto enqueue = [&](NodeId v) {
    const uint8_t bits = state[v];
    if (bits & kQueued) return;  // queued implies touched
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
      // The frontier is global: hand over to node-order passes. Every
      // queued node holds residual > epsilon, so the passes find them.
      sweeping_ = true;
      fifo_ = {};
      fifo_head_ = 0;
      state_ = {};
      touched_ = {};
      pushes_ = pushes;
      return AdvancePasses(rows, limit);
    }
    if (pushes >= limit) break;
    const NodeId u = fifo_[fifo_head_++];
    // Entries before the head are spent; drop them once they are the
    // larger part, so the buffer stays O(live) at O(1) amortized cost.
    if (fifo_head_ > live) {
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<ptrdiff_t>(fifo_head_));
      fifo_head_ = 0;
    }
    state[u] = kTouched;
    // A queued node's residual only grows until it is popped, so it is
    // still above epsilon here.
    const double mass = residual[u];
    residual[u] = 0.0;
    ++pushes;
    kernel.Push(u, mass, enqueue);
  }
  pushes_ = pushes;
  return drained;
}

template <typename Rows>
bool PushRun::AdvancePasses(const Rows& rows, int64_t limit) {
  const Kernel<Rows> kernel(*this, rows);
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

void PushRun::MoveInto(PushResult* result) {
  result->scores = std::move(scores_);
  result->residual = std::move(residual_);
  result->pushes = pushes_;
  result->passes = passes_;
}

Result<PushResult> ForwardPushPpr(const CsrGraph& graph,
                                  const TransitionMatrix& transition,
                                  std::span<const double> seed,
                                  const PushOptions& options) {
  D2PR_ASSIGN_OR_RETURN(
      PushRun run, PushRun::Start(graph, transition, seed, options.alpha,
                                  options.epsilon, options.reinject_dangling));
  const int64_t max_pushes = options.max_pushes > 0
                                 ? options.max_pushes
                                 : DefaultPushCap(graph.num_nodes());
  PushResult result;
  result.completed = run.Advance(max_pushes);
  run.MoveInto(&result);
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
