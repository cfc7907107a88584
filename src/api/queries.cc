// Engine-routed implementations of the query helpers declared in
// core/d2pr.h, core/sweeps.h, and core/tuner.h.
//
// They live in the api layer (not core) so the dependency stays
// one-directional: api builds on core's solvers and transition models;
// core never includes api. The graph-taking free functions are thin
// wrappers over a call-scoped D2prEngine — an uncached cold Rank performs
// exactly the seed sequence (Build, then SolvePagerank from the teleport
// vector), so their results are bit-identical to the pre-engine
// implementations. The engine-taking overloads reuse the caller's
// transition cache across calls; the tuner also keeps a warm-start
// trajectory in it.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "api/engine.h"
#include "common/string_util.h"
#include "core/sweeps.h"
#include "core/tuner.h"
#include "stats/correlation.h"

namespace d2pr {

// ------------------------------------------------------------ one-shots

Result<PagerankResult> ComputeD2pr(const CsrGraph& graph,
                                   const D2prOptions& options) {
  D2prEngine engine = D2prEngine::Borrowing(graph);
  D2PR_ASSIGN_OR_RETURN(RankResponse response,
                        engine.Rank(ToRankRequest(options)));
  return ToPagerankResult(std::move(response));
}

Result<PagerankResult> ComputeConventionalPagerank(const CsrGraph& graph,
                                                   double alpha) {
  D2prOptions options;
  options.p = 0.0;
  options.beta = graph.weighted() ? 1.0 : 0.0;
  options.alpha = alpha;
  return ComputeD2pr(graph, options);
}

Result<PagerankResult> ComputePersonalizedD2pr(const CsrGraph& graph,
                                               std::span<const NodeId> seeds,
                                               const D2prOptions& options) {
  if (seeds.empty()) {
    // The engine reads empty seeds as "uniform teleport"; the personalized
    // entry point keeps rejecting them like SeededTeleport always has.
    return Status::InvalidArgument("teleport seed set must be non-empty");
  }
  D2prEngine engine = D2prEngine::Borrowing(graph);
  RankRequest request = ToRankRequest(options);
  request.seeds.assign(seeds.begin(), seeds.end());
  D2PR_ASSIGN_OR_RETURN(RankResponse response, engine.Rank(request));
  return ToPagerankResult(std::move(response));
}

// --------------------------------------------------------------- sweeps

namespace {

// Shared sweep: one knob of D2prOptions varies, everything else is
// fixed. The grid goes to RankBatch as untagged power requests, so it is
// solved in batched passes over the arcs (SolvePagerankBatch) and every
// point is bit-identical to its own cold solve.
Result<std::vector<SweepPoint>> SweepField(D2prEngine& engine,
                                           const std::vector<double>& values,
                                           const D2prOptions& base,
                                           double D2prOptions::*field) {
  std::vector<RankRequest> requests;
  requests.reserve(values.size());
  for (double value : values) {
    D2prOptions options = base;
    options.*field = value;
    requests.push_back(ToRankRequest(options));
  }
  D2PR_ASSIGN_OR_RETURN(std::vector<RankResponse> responses,
                        engine.RankBatch(requests));
  std::vector<SweepPoint> points;
  points.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    points.push_back({values[i], ToPagerankResult(std::move(responses[i]))});
  }
  return points;
}

}  // namespace

Result<std::vector<SweepPoint>> SweepP(D2prEngine& engine,
                                       const std::vector<double>& p_values,
                                       const D2prOptions& base) {
  return SweepField(engine, p_values, base, &D2prOptions::p);
}

Result<std::vector<SweepPoint>> SweepAlpha(
    D2prEngine& engine, const std::vector<double>& alpha_values,
    const D2prOptions& base) {
  return SweepField(engine, alpha_values, base, &D2prOptions::alpha);
}

Result<std::vector<SweepPoint>> SweepBeta(
    D2prEngine& engine, const std::vector<double>& beta_values,
    const D2prOptions& base) {
  return SweepField(engine, beta_values, base, &D2prOptions::beta);
}

Result<std::vector<SweepPoint>> SweepP(const CsrGraph& graph,
                                       const std::vector<double>& p_values,
                                       const D2prOptions& base) {
  D2prEngine engine = D2prEngine::Borrowing(graph);
  return SweepP(engine, p_values, base);
}

Result<std::vector<SweepPoint>> SweepAlpha(
    const CsrGraph& graph, const std::vector<double>& alpha_values,
    const D2prOptions& base) {
  D2prEngine engine = D2prEngine::Borrowing(graph);
  return SweepAlpha(engine, alpha_values, base);
}

Result<std::vector<SweepPoint>> SweepBeta(
    const CsrGraph& graph, const std::vector<double>& beta_values,
    const D2prOptions& base) {
  D2prEngine engine = D2prEngine::Borrowing(graph);
  return SweepBeta(engine, beta_values, base);
}

// ---------------------------------------------------------------- tuner

namespace {

constexpr double kInvPhi = 0.6180339887498949;  // 1/golden ratio

}  // namespace

Result<TuneResult> TuneDecouplingWeight(const CsrGraph& graph,
                                        std::span<const double> significance,
                                        const TuneOptions& options) {
  D2prEngine engine = D2prEngine::Borrowing(graph);
  return TuneDecouplingWeight(engine, significance, options);
}

Result<TuneResult> TuneDecouplingWeight(D2prEngine& engine,
                                        std::span<const double> significance,
                                        const TuneOptions& options) {
  const CsrGraph& graph = engine.graph();
  if (significance.size() != static_cast<size_t>(graph.num_nodes())) {
    return Status::InvalidArgument(
        StrCat("significance size ", significance.size(), " != num nodes ",
               graph.num_nodes()));
  }
  if (!(options.p_min < options.p_max)) {
    return Status::InvalidArgument("p_min must be < p_max");
  }
  if (!(options.coarse_step > 0.0)) {
    return Status::InvalidArgument("coarse_step must be positive");
  }

  // Probes chain along one warm-start trajectory: the coarse grid is
  // monotone in p, and every refinement probe stays within one grid cell
  // of the previous evaluation, so each solve starts near its fixed point.
  const std::string tag = kTuneWarmStartTag;
  engine.ForgetWarmStart(tag);
  TuneResult tune;
  auto evaluate = [&](double p) -> Result<double> {
    D2prOptions opts = options.base;
    opts.p = p;
    RankRequest request = ToRankRequest(opts);
    request.warm_start_tag = tag;
    D2PR_ASSIGN_OR_RETURN(RankResponse response, engine.Rank(request));
    const double corr = SpearmanCorrelation(response.scores, significance);
    tune.evaluated.emplace_back(p, corr);
    return corr;
  };

  // Coarse grid pass.
  double best_p = options.p_min;
  double best_corr = -2.0;
  for (double p = options.p_min; p <= options.p_max + 1e-12;
       p += options.coarse_step) {
    D2PR_ASSIGN_OR_RETURN(double corr, evaluate(p));
    if (corr > best_corr) {
      best_corr = corr;
      best_p = p;
    }
  }

  // Golden-section refinement inside the bracket around the best grid
  // point (one grid cell each side, clamped to the search range).
  double lo = std::max(options.p_min, best_p - options.coarse_step);
  double hi = std::min(options.p_max, best_p + options.coarse_step);
  double x1 = hi - kInvPhi * (hi - lo);
  double x2 = lo + kInvPhi * (hi - lo);
  D2PR_ASSIGN_OR_RETURN(double f1, evaluate(x1));
  D2PR_ASSIGN_OR_RETURN(double f2, evaluate(x2));
  for (int iter = 0; iter < options.max_refine_iterations &&
                     (hi - lo) > options.refine_tolerance;
       ++iter) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kInvPhi * (hi - lo);
      D2PR_ASSIGN_OR_RETURN(f2, evaluate(x2));
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kInvPhi * (hi - lo);
      D2PR_ASSIGN_OR_RETURN(f1, evaluate(x1));
    }
  }

  // Report the best point seen anywhere (grid or refinement).
  for (const auto& [p, corr] : tune.evaluated) {
    if (corr > best_corr || (corr == best_corr && p == best_p)) {
      best_corr = corr;
      best_p = p;
    }
  }
  tune.best_p = best_p;
  tune.best_correlation = best_corr;
  return tune;
}

}  // namespace d2pr
