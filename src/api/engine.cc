#include "api/engine.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/string_util.h"
#include "core/gauss_seidel.h"
#include "core/pagerank.h"
#include "core/push_ppr.h"
#include "core/teleport.h"
#include "linalg/vec_ops.h"
#include "topk/topk_solver.h"

namespace d2pr {

namespace {

// Extrapolation guardrail: a requested point farther than this many stored
// trajectory steps falls back to a plain warm start.
constexpr double kMaxExtrapolationFactor = 4.0;

// Max distinct warm-start tags retained (each holds the last two
// solutions of its trajectory).
constexpr size_t kWarmStartCapacity = 8;

// Whether RankBatch may solve `request` in a batched power pass: an exact
// power solve that neither reads nor writes the warm-start store.
bool Batchable(const RankRequest& request) {
  return request.method == SolverMethod::kPower &&
         request.warm_start_tag.empty();
}

PagerankOptions SolverOptions(const RankRequest& request) {
  PagerankOptions solver;
  solver.alpha = request.alpha;
  solver.tolerance = request.tolerance;
  solver.max_iterations = request.max_iterations;
  solver.dangling = request.dangling;
  return solver;
}

}  // namespace

const char* SolverMethodName(SolverMethod method) {
  switch (method) {
    case SolverMethod::kPower:
      return "power";
    case SolverMethod::kGaussSeidel:
      return "gauss-seidel";
    case SolverMethod::kForwardPush:
      return "forward-push";
  }
  return "unknown";
}

D2prEngine::D2prEngine(CsrGraph graph, const EngineOptions& options)
    : D2prEngine(std::make_shared<const CsrGraph>(std::move(graph)),
                 options) {}

D2prEngine::D2prEngine(std::shared_ptr<const CsrGraph> graph,
                       const EngineOptions& options)
    : graph_(graph), options_(options), resolver_(std::move(graph), options) {}

D2prEngine D2prEngine::Borrowing(const CsrGraph& graph,
                                 const EngineOptions& options) {
  return D2prEngine(
      std::shared_ptr<const CsrGraph>(&graph, [](const CsrGraph*) {}),
      options);
}

void D2prEngine::ClearCaches() {
  resolver_.Clear();
  std::lock_guard<std::mutex> lock(warm_mu_);
  warm_entries_.clear();
}

TransitionKey D2prEngine::ResolveKey(const RankRequest& request) const {
  TransitionKey key;
  key.p = request.p;
  key.beta = graph_->weighted() ? request.beta : 0.0;
  key.metric = ResolveMetric(*graph_, request.metric);
  return key;
}

std::span<const double> D2prEngine::UniformTeleportVector() {
  // Built on first unseeded query so purely personalized workloads never
  // pay for it; immutable afterwards, so readers need no lock.
  std::call_once(uniform_teleport_once_, [this] {
    uniform_teleport_ = UniformTeleport(graph_->num_nodes());
  });
  return uniform_teleport_;
}

Result<std::span<const double>> D2prEngine::TeleportFor(
    const RankRequest& request, std::vector<double>* seeded) {
  if (request.seeds.empty()) return UniformTeleportVector();
  D2PR_ASSIGN_OR_RETURN(*seeded,
                        SeededTeleport(graph_->num_nodes(), request.seeds));
  return std::span<const double>(*seeded);
}

Result<std::shared_ptr<const TransitionMatrix>> D2prEngine::GetTransition(
    const TransitionKey& key, bool* cache_hit, bool* store_hit) {
  TransitionResolver::Outcome outcome;
  auto resolved = resolver_.Resolve(key, &outcome);
  // Fold the resolver's outcome into this engine's cumulative stats; the
  // resolver keeps its own counters, but EngineStats is the per-engine
  // telemetry surface tests and tools read.
  *cache_hit = outcome.cache_hit;
  *store_hit = outcome.store_hit;
  if (outcome.cache_hit) ++stats_.transition_cache_hits;
  if (outcome.store_hit) ++stats_.transition_store_loads;
  if (outcome.built) ++stats_.transition_builds;
  if (outcome.spilled) ++stats_.transition_store_saves;
  return resolved;
}

Result<RankResponse> D2prEngine::Rank(const RankRequest& request) {
  ++stats_.requests;
  // Parameter checks run before the cache is touched; shared with every
  // other serving front end so the surface errors identically per mode.
  D2PR_RETURN_NOT_OK(ValidateRankRequestParameters(request));

  // The teleport vector is validated before the transition is fetched for
  // the same reason as the parameter checks above: bad seeds must not pay
  // a build or evict a cached matrix.
  std::vector<double> seeded;
  D2PR_ASSIGN_OR_RETURN(std::span<const double> teleport,
                        TeleportFor(request, &seeded));

  const TransitionKey key = ResolveKey(request);

  RankResponse response;
  response.method = request.method;
  bool cache_hit = false;
  bool store_hit = false;
  D2PR_ASSIGN_OR_RETURN(std::shared_ptr<const TransitionMatrix> transition,
                        GetTransition(key, &cache_hit, &store_hit));
  response.transition_cache_hit = cache_hit;
  response.transition_store_hit = store_hit;

  if (request.method == SolverMethod::kForwardPush) {
    if (request.top_k > 0) {
      // Degree-pruned bounded push: the solver terminates as soon as the
      // k-th candidate's lower bound clears every non-candidate's upper
      // bound, which on skewed graphs is far before the residual floor.
      TopKOptions topk;
      topk.k = request.top_k;
      topk.alpha = request.alpha;
      topk.epsilon = request.push_epsilon;
      topk.reinject_dangling = request.dangling == DanglingPolicy::kTeleport;
      std::shared_ptr<const DegreeBoundIndex> bounds =
          resolver_.ResolveBounds(key, transition);
      D2PR_ASSIGN_OR_RETURN(
          TopKResult ranked,
          SolveTopK(*graph_, *transition, *bounds, teleport, topk));
      stats_.push_operations += ranked.pushes;
      response.truncated = true;
      response.top.reserve(ranked.entries.size());
      for (const TopKEntry& entry : ranked.entries) {
        response.top.push_back(
            {entry.node, entry.lower_bound, entry.certified});
      }
      response.uncertainty_gap = ranked.uncertainty_gap;
      response.pushes = ranked.pushes;
      response.converged = ranked.completed;
      return response;
    }
    PushOptions push;
    push.alpha = request.alpha;
    push.epsilon = request.push_epsilon;
    // kSelfLoop was rejected before the transition was fetched.
    push.reinject_dangling = request.dangling == DanglingPolicy::kTeleport;
    D2PR_ASSIGN_OR_RETURN(
        PushResult pushed,
        ForwardPushPpr(*graph_, *transition, teleport, push));
    stats_.push_operations += pushed.pushes;
    response.scores = std::move(pushed.scores);
    response.pushes = pushed.pushes;
    response.converged = pushed.completed;
    return response;
  }

  const PagerankOptions solver = SolverOptions(request);
  Result<PagerankResult> solved = [&]() -> Result<PagerankResult> {
    if (request.method == SolverMethod::kGaussSeidel) {
      return SolvePagerankGaussSeidel(*graph_, *transition, teleport, solver);
    }
    std::vector<double> start;
    if (!request.warm_start_tag.empty()) {
      start = WarmStartFor(request, key);
    }
    if (start.empty()) {
      return SolvePagerank(*graph_, *transition, teleport, solver);
    }
    response.warm_start_hit = true;
    ++stats_.warm_start_hits;
    return SolvePagerankFrom(*graph_, *transition, teleport, start, solver);
  }();
  if (!solved.ok()) return solved.status();
  if (!request.warm_start_tag.empty()) {
    // Store the FULL solution before any truncation: the trajectory must
    // stay usable as a starting iterate for the next exact solve.
    StoreWarmStart(request, key, solved->scores);
  }
  FinishExactResponse(request, std::move(*solved), &response);
  return response;
}

void D2prEngine::FinishExactResponse(const RankRequest& request,
                                     PagerankResult solved,
                                     RankResponse* response) {
  stats_.solver_iterations += solved.iterations;
  response->iterations = solved.iterations;
  response->converged = solved.converged;
  response->residual = solved.residual;
  response->scores = std::move(solved.scores);
  if (request.top_k > 0) {
    // Exact solve, then truncate: every served entry is the true score,
    // so the whole set is certified with zero gap.
    response->top = TruncateToTopK(response->scores, request.top_k);
    response->uncertainty_gap = 0.0;
    response->truncated = true;
    response->scores.clear();
  }
}

Result<std::vector<RankResponse>> D2prEngine::RankBatch(
    std::span<const RankRequest> requests) {
  std::vector<RankResponse> responses;
  responses.reserve(requests.size());
  size_t begin = 0;
  while (begin < requests.size()) {
    size_t end = begin + 1;
    if (Batchable(requests[begin])) {
      while (end < requests.size() && Batchable(requests[end]) &&
             requests[end].seeds == requests[begin].seeds) {
        ++end;
      }
    }
    if (end - begin == 1) {
      D2PR_ASSIGN_OR_RETURN(RankResponse response, Rank(requests[begin]));
      responses.push_back(std::move(response));
    } else {
      D2PR_RETURN_NOT_OK(
          RankPowerRun(requests.subspan(begin, end - begin), &responses));
    }
    begin = end;
  }
  return responses;
}

Status D2prEngine::RankPowerRun(std::span<const RankRequest> run,
                                std::vector<RankResponse>* responses) {
  // Rank's steps before the solve, request by request: the same
  // counters, checks and transition resolves in the same order.
  std::vector<double> seeded;
  std::span<const double> teleport;
  std::vector<std::shared_ptr<const TransitionMatrix>> transitions;
  const size_t first = responses->size();
  for (const RankRequest& request : run) {
    ++stats_.requests;
    D2PR_RETURN_NOT_OK(ValidateRankRequestParameters(request));
    if (transitions.empty()) {
      // The run shares one seed list, so one teleport vector.
      D2PR_ASSIGN_OR_RETURN(teleport, TeleportFor(request, &seeded));
    }
    RankResponse response;
    response.method = request.method;
    D2PR_ASSIGN_OR_RETURN(
        std::shared_ptr<const TransitionMatrix> transition,
        GetTransition(ResolveKey(request), &response.transition_cache_hit,
                      &response.transition_store_hit));
    responses->push_back(std::move(response));
    transitions.push_back(std::move(transition));
  }

  std::vector<PagerankColumn> columns;
  for (size_t k = 0; k < run.size(); ++k) {
    columns.push_back({transitions[k].get(), SolverOptions(run[k])});
  }
  D2PR_ASSIGN_OR_RETURN(std::vector<PagerankResult> solved,
                        SolvePagerankBatch(*graph_, columns, teleport));
  for (size_t k = 0; k < run.size(); ++k) {
    FinishExactResponse(run[k], std::move(solved[k]),
                        &(*responses)[first + k]);
  }
  return Status::OK();
}

void D2prEngine::ForgetWarmStart(const std::string& tag) {
  std::lock_guard<std::mutex> lock(warm_mu_);
  auto it = FindWarmEntry(tag);
  if (it != warm_entries_.end()) warm_entries_.erase(it);
}

std::list<D2prEngine::WarmEntry>::iterator D2prEngine::FindWarmEntry(
    const std::string& tag) {
  for (auto it = warm_entries_.begin(); it != warm_entries_.end(); ++it) {
    if (it->tag == tag) {
      warm_entries_.splice(warm_entries_.begin(), warm_entries_, it);
      return warm_entries_.begin();
    }
  }
  return warm_entries_.end();
}

std::vector<double> D2prEngine::WarmStartFor(const RankRequest& request,
                                             const TransitionKey& key) {
  std::lock_guard<std::mutex> lock(warm_mu_);
  auto entry = FindWarmEntry(request.warm_start_tag);
  if (entry == warm_entries_.end() || entry->snapshots.empty()) return {};
  const WarmSnapshot& cur = entry->snapshots.front();
  // A stored solution from a different metric, dangling policy, or seed
  // set solves a different family of fixed points; starting from it is
  // still correct (the fixed point is unique) but rarely closer than the
  // teleport vector, so require an exact context match.
  if (cur.metric != key.metric || cur.dangling != request.dangling ||
      cur.seeds != request.seeds) {
    return {};
  }

  if (entry->snapshots.size() == 2) {
    const WarmSnapshot& prev = entry->snapshots[1];
    if (prev.metric == cur.metric && prev.dangling == cur.dangling &&
        prev.seeds == cur.seeds) {
      // If exactly one of (p, beta, alpha) moves along prev -> cur ->
      // request, extrapolate linearly along that coordinate: the solution
      // curve is smooth in each parameter, so the predicted iterate lands
      // closer than cur.scores alone.
      const double steps[3] = {cur.p - prev.p, cur.beta - prev.beta,
                               cur.alpha - prev.alpha};
      const double wants[3] = {request.p - cur.p, key.beta - cur.beta,
                               request.alpha - cur.alpha};
      int moving = -1;
      int moving_count = 0;
      for (int i = 0; i < 3; ++i) {
        if (steps[i] != 0.0 || wants[i] != 0.0) {
          moving = i;
          ++moving_count;
        }
      }
      if (moving_count == 1 && steps[moving] != 0.0) {
        const double t = wants[moving] / steps[moving];
        if (std::isfinite(t) && std::abs(t) <= kMaxExtrapolationFactor) {
          std::vector<double> guess(cur.scores.size());
          for (size_t i = 0; i < guess.size(); ++i) {
            const double extrapolated =
                cur.scores[i] + t * (cur.scores[i] - prev.scores[i]);
            guess[i] = extrapolated > 0.0 ? extrapolated : 0.0;
          }
          if (NormalizeL1(guess) > 0.0) return guess;
        }
      }
    }
  }
  return cur.scores;
}

void D2prEngine::StoreWarmStart(const RankRequest& request,
                                const TransitionKey& key,
                                const std::vector<double>& scores) {
  std::lock_guard<std::mutex> lock(warm_mu_);
  auto entry = FindWarmEntry(request.warm_start_tag);
  if (entry == warm_entries_.end()) {
    warm_entries_.push_front(WarmEntry{request.warm_start_tag, {}});
    entry = warm_entries_.begin();
    while (warm_entries_.size() > kWarmStartCapacity) {
      warm_entries_.pop_back();
    }
  }
  WarmSnapshot snapshot;
  snapshot.p = key.p;
  snapshot.beta = key.beta;
  snapshot.alpha = request.alpha;
  snapshot.metric = key.metric;
  snapshot.dangling = request.dangling;
  snapshot.seeds = request.seeds;
  snapshot.scores = scores;
  entry->snapshots.insert(entry->snapshots.begin(), std::move(snapshot));
  if (entry->snapshots.size() > 2) entry->snapshots.resize(2);
}

RankRequest ToRankRequest(const D2prOptions& options) {
  RankRequest request;
  request.p = options.p;
  request.beta = options.beta;
  request.metric = options.metric;
  request.alpha = options.alpha;
  request.tolerance = options.tolerance;
  request.max_iterations = options.max_iterations;
  request.dangling = options.dangling;
  return request;
}

PagerankResult ToPagerankResult(RankResponse response) {
  PagerankResult result;
  result.scores = std::move(response.scores);
  result.iterations = response.iterations;
  result.converged = response.converged;
  result.residual = response.residual;
  return result;
}

}  // namespace d2pr
