// The acceptance bar for the engine migration:
//
//  1. Legacy free functions are wrappers over D2prEngine and return
//     bit-identical (one-shot, sweeps) or within-tolerance (warm-started
//     tuner) results.
//  2. SweepP(PaperPGrid()) and TuneDecouplingWeight routed through one
//     shared engine perform strictly fewer TransitionMatrix::Build calls
//     and strictly fewer solver iterations than the seed implementation
//     (re-created here verbatim as the baseline), asserted via the
//     engine's diagnostics counters. The sweep itself runs cold batched
//     solves, so its share of the iterations equals the cold sum.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/sweeps.h"
#include "core/teleport.h"
#include "core/tuner.h"
#include "datagen/classic_generators.h"
#include "linalg/vec_ops.h"
#include "stats/correlation.h"

namespace d2pr {
namespace {

struct SeedCounters {
  int64_t builds = 0;
  int64_t iterations = 0;
};

// The seed SweepP: one TransitionMatrix::Build per grid point, each solve
// warm-started from its predecessor's scores.
SeedCounters SeedSweepP(const CsrGraph& graph,
                        const std::vector<double>& p_values,
                        const D2prOptions& base) {
  SeedCounters counters;
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  const PagerankOptions solver = ToPagerankOptions(base);
  std::vector<double> previous;
  for (double p : p_values) {
    D2prOptions options = base;
    options.p = p;
    ++counters.builds;
    auto transition =
        TransitionMatrix::Build(graph, ToTransitionConfig(options));
    EXPECT_TRUE(transition.ok());
    auto result =
        previous.empty()
            ? SolvePagerank(graph, *transition, teleport, solver)
            : SolvePagerankFrom(graph, *transition, teleport, previous,
                                solver);
    EXPECT_TRUE(result.ok());
    counters.iterations += result->iterations;
    previous = std::move(result)->scores;
  }
  return counters;
}

// The seed TuneDecouplingWeight: every probe (coarse grid and
// golden-section refinement) is a fresh Build plus a cold solve.
SeedCounters SeedTune(const CsrGraph& graph,
                      std::span<const double> significance,
                      const TuneOptions& options) {
  constexpr double kInvPhi = 0.6180339887498949;
  SeedCounters counters;
  auto evaluate = [&](double p) -> double {
    D2prOptions opts = options.base;
    opts.p = p;
    ++counters.builds;
    auto transition =
        TransitionMatrix::Build(graph, ToTransitionConfig(opts));
    EXPECT_TRUE(transition.ok());
    auto pr = SolvePagerank(graph, *transition, ToPagerankOptions(opts));
    EXPECT_TRUE(pr.ok());
    counters.iterations += pr->iterations;
    return SpearmanCorrelation(pr->scores, significance);
  };

  double best_p = options.p_min;
  double best_corr = -2.0;
  for (double p = options.p_min; p <= options.p_max + 1e-12;
       p += options.coarse_step) {
    const double corr = evaluate(p);
    if (corr > best_corr) {
      best_corr = corr;
      best_p = p;
    }
  }
  double lo = std::max(options.p_min, best_p - options.coarse_step);
  double hi = std::min(options.p_max, best_p + options.coarse_step);
  double x1 = hi - kInvPhi * (hi - lo);
  double x2 = lo + kInvPhi * (hi - lo);
  double f1 = evaluate(x1);
  double f2 = evaluate(x2);
  for (int iter = 0; iter < options.max_refine_iterations &&
                     (hi - lo) > options.refine_tolerance;
       ++iter) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kInvPhi * (hi - lo);
      f2 = evaluate(x2);
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kInvPhi * (hi - lo);
      f1 = evaluate(x1);
    }
  }
  return counters;
}

// The references below deliberately bypass the engine (ComputeD2pr and
// friends are wrappers over it now) and re-run the seed recipe on core
// primitives, so a regression in the engine's cold path cannot hide.

TEST(EngineParityTest, ComputeD2prIsBitIdenticalToSeedRecipe) {
  Rng rng(21);
  auto graph = BarabasiAlbert(400, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const D2prOptions options{.p = 0.75, .alpha = 0.8};

  auto transition =
      TransitionMatrix::Build(*graph, ToTransitionConfig(options));
  ASSERT_TRUE(transition.ok());
  auto reference =
      SolvePagerank(*graph, *transition, ToPagerankOptions(options));
  ASSERT_TRUE(reference.ok());

  auto legacy = ComputeD2pr(*graph, options);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->scores, reference->scores);
  EXPECT_EQ(legacy->iterations, reference->iterations);
  EXPECT_EQ(legacy->residual, reference->residual);

  D2prEngine engine = D2prEngine::Borrowing(*graph);
  auto response = engine.Rank(ToRankRequest(options));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->scores, reference->scores);
}

TEST(EngineParityTest, PersonalizedWrapperIsBitIdenticalToSeedRecipe) {
  Rng rng(22);
  auto graph = BarabasiAlbert(400, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<NodeId> seeds = {5, 9, 120};
  const D2prOptions options{.p = 0.5};

  auto transition =
      TransitionMatrix::Build(*graph, ToTransitionConfig(options));
  ASSERT_TRUE(transition.ok());
  auto teleport = SeededTeleport(graph->num_nodes(), seeds);
  ASSERT_TRUE(teleport.ok());
  auto reference = SolvePagerank(*graph, *transition, *teleport,
                                 ToPagerankOptions(options));
  ASSERT_TRUE(reference.ok());

  auto legacy = ComputePersonalizedD2pr(*graph, seeds, options);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->scores, reference->scores);

  D2prEngine engine = D2prEngine::Borrowing(*graph);
  RankRequest request = ToRankRequest(options);
  request.seeds = seeds;
  auto response = engine.Rank(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->scores, reference->scores);
}

TEST(EngineParityTest, LegacySweepsMatchColdPointSolvesWithinTolerance) {
  Rng rng(23);
  auto graph = BarabasiAlbert(400, 3, &rng);
  ASSERT_TRUE(graph.ok());
  D2prOptions base;
  base.tolerance = 1e-11;

  auto alpha_sweep = SweepAlpha(*graph, PaperAlphaGrid(), base);
  ASSERT_TRUE(alpha_sweep.ok());
  for (const SweepPoint& point : *alpha_sweep) {
    D2prOptions cold = base;
    cold.alpha = point.parameter;
    auto reference =
        SolvePagerank(*graph,
                      TransitionMatrix::Build(*graph,
                                              ToTransitionConfig(cold))
                          .value(),
                      ToPagerankOptions(cold));
    ASSERT_TRUE(reference.ok());
    EXPECT_LT(DiffLInf(point.result.scores, reference->scores), 1e-7)
        << "alpha = " << point.parameter;
  }
}

TEST(EngineParityTest, TunerFindsTheSameOptimumAsTheSeedImplementation) {
  Rng rng(24);
  auto graph = BarabasiAlbert(400, 3, &rng);
  ASSERT_TRUE(graph.ok());
  // Smooth unimodal target: the D2PR scores at p = 1.5 themselves.
  auto target = ComputeD2pr(*graph, {.p = 1.5});
  ASSERT_TRUE(target.ok());

  TuneOptions options;
  options.p_min = -2.0;
  options.p_max = 3.0;
  auto tuned = TuneDecouplingWeight(*graph, target->scores, options);
  ASSERT_TRUE(tuned.ok());
  EXPECT_NEAR(tuned->best_p, 1.5, options.coarse_step);
  EXPECT_GT(tuned->best_correlation, 0.999);
}

TEST(EngineParityTest, SharedEngineSweepAndTuneBeatSeedCounters) {
  Rng rng(25);
  auto graph = BarabasiAlbert(600, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> grid = PaperPGrid();
  D2prOptions base;
  auto target = ComputeD2pr(*graph, {.p = 1.0});
  ASSERT_TRUE(target.ok());
  TuneOptions tune_options;
  tune_options.base = base;

  // Baseline: the seed implementations, counted by construction.
  const SeedCounters seed_sweep = SeedSweepP(*graph, grid, base);
  const SeedCounters seed_tune =
      SeedTune(*graph, target->scores, tune_options);
  const int64_t seed_builds = seed_sweep.builds + seed_tune.builds;
  const int64_t seed_iterations =
      seed_sweep.iterations + seed_tune.iterations;

  // Engine: same sweep then same tuning run, sharing one engine.
  D2prEngine engine = D2prEngine::Borrowing(*graph);
  auto sweep = SweepP(engine, grid, base);
  ASSERT_TRUE(sweep.ok());
  const int64_t engine_sweep_iterations = engine.stats().solver_iterations;
  auto tuned = TuneDecouplingWeight(engine, target->scores, tune_options);
  ASSERT_TRUE(tuned.ok());

  const EngineStats& stats = engine.stats();
  // The tuner's coarse pass revisits the sweep's 17 grid points, so its
  // transitions come from the cache instead of being rebuilt.
  EXPECT_GE(stats.transition_cache_hits, 15);
  EXPECT_LT(stats.transition_builds, seed_builds);
  EXPECT_LT(stats.solver_iterations, seed_iterations);
  // The sweep's points are batched cold solves: its iterations are
  // exactly the sum of the 17 cold solves, not the seed's warm-started
  // count.
  int64_t cold_sweep_iterations = 0;
  for (double p : grid) {
    D2prOptions point = base;
    point.p = p;
    auto cold = ComputeD2pr(*graph, point);
    ASSERT_TRUE(cold.ok());
    cold_sweep_iterations += cold->iterations;
  }
  EXPECT_EQ(engine_sweep_iterations, cold_sweep_iterations);
  EXPECT_EQ(sweep->size(), grid.size());
  EXPECT_TRUE(std::isfinite(tuned->best_p));
}

}  // namespace
}  // namespace d2pr
