// Warm-started solves: correctness (unique fixed point regardless of
// starting iterate) and effectiveness (fewer iterations than cold
// starts). Sweeps solve cold and are checked against cold solves.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pagerank.h"
#include "core/sweeps.h"
#include "core/teleport.h"
#include "datagen/classic_generators.h"
#include "linalg/vec_ops.h"

namespace d2pr {
namespace {

TEST(WarmStartTest, AnyStartReachesSameFixedPoint) {
  Rng rng(3);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  auto transition = TransitionMatrix::Build(*graph, {.p = 0.5});
  ASSERT_TRUE(transition.ok());
  const std::vector<double> teleport = UniformTeleport(300);
  PagerankOptions options;
  options.tolerance = 1e-13;
  options.max_iterations = 500;

  auto cold = SolvePagerank(*graph, *transition, teleport, options);
  ASSERT_TRUE(cold.ok());

  // Start from a wildly different distribution: all mass on node 0.
  std::vector<double> spike(300, 0.0);
  spike[0] = 1.0;
  auto warm =
      SolvePagerankFrom(*graph, *transition, teleport, spike, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(DiffLInf(cold->scores, warm->scores), 1e-10);
}

TEST(WarmStartTest, UnnormalizedInitialIsNormalized) {
  Rng rng(5);
  auto graph = ErdosRenyi(100, 300, &rng);
  ASSERT_TRUE(graph.ok());
  auto transition = TransitionMatrix::Build(*graph, {});
  ASSERT_TRUE(transition.ok());
  const std::vector<double> teleport = UniformTeleport(100);
  std::vector<double> initial(100, 42.0);  // sums to 4200
  PagerankOptions options;
  options.tolerance = 1e-12;
  auto result =
      SolvePagerankFrom(*graph, *transition, teleport, initial, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(Sum(result->scores), 1.0, 1e-9);
}

TEST(WarmStartTest, NearbyStartConvergesFaster) {
  Rng rng(7);
  auto graph = BarabasiAlbert(500, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(500);
  PagerankOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 500;

  auto t1 = TransitionMatrix::Build(*graph, {.p = 0.5});
  auto t2 = TransitionMatrix::Build(*graph, {.p = 0.6});
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto first = SolvePagerank(*graph, *t1, teleport, options);
  ASSERT_TRUE(first.ok());
  auto cold = SolvePagerank(*graph, *t2, teleport, options);
  auto warm = SolvePagerankFrom(*graph, *t2, teleport, first->scores,
                                options);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->iterations, cold->iterations);
  EXPECT_LT(DiffLInf(cold->scores, warm->scores), 1e-8);
}

TEST(WarmStartTest, ValidationErrors) {
  Rng rng(9);
  auto graph = ErdosRenyi(50, 150, &rng);
  ASSERT_TRUE(graph.ok());
  auto transition = TransitionMatrix::Build(*graph, {});
  ASSERT_TRUE(transition.ok());
  const std::vector<double> teleport = UniformTeleport(50);
  std::vector<double> short_initial(10, 0.1);
  EXPECT_FALSE(SolvePagerankFrom(*graph, *transition, teleport,
                                 short_initial, {})
                   .ok());
  std::vector<double> negative(50, 1.0 / 50);
  negative[3] = -0.5;
  EXPECT_FALSE(
      SolvePagerankFrom(*graph, *transition, teleport, negative, {}).ok());
}

TEST(WarmSweepTest, MatchesColdPointwiseSolves) {
  Rng rng(11);
  auto graph = BarabasiAlbert(400, 3, &rng);
  ASSERT_TRUE(graph.ok());
  D2prOptions base;
  base.tolerance = 1e-11;
  const std::vector<double> grid = LinearGrid(-2.0, 2.0, 0.5);
  auto sweep = SweepP(*graph, grid, base);
  ASSERT_TRUE(sweep.ok());
  // Compare two arbitrary interior points with independent cold solves.
  for (size_t idx : {2UL, 6UL}) {
    D2prOptions point = base;
    point.p = grid[idx];
    auto cold = ComputeD2pr(*graph, point);
    ASSERT_TRUE(cold.ok());
    EXPECT_LT(DiffLInf((*sweep)[idx].result.scores, cold->scores), 1e-7)
        << "p = " << grid[idx];
  }
}

TEST(WarmSweepTest, PointsTakeTheirOwnColdIterations) {
  // Sweep points are batched cold solves, so each point takes exactly the
  // iterations of its own cold solve (warm starts stay with the tuner and
  // tagged requests; see WarmStartTest above).
  Rng rng(13);
  auto graph = BarabasiAlbert(600, 3, &rng);
  ASSERT_TRUE(graph.ok());
  D2prOptions base;
  base.tolerance = 1e-10;
  const std::vector<double> grid = LinearGrid(0.0, 2.0, 0.25);
  auto sweep = SweepP(*graph, grid, base);
  ASSERT_TRUE(sweep.ok());
  for (size_t i = 0; i < sweep->size(); ++i) {
    D2prOptions point = base;
    point.p = grid[i];
    auto cold = ComputeD2pr(*graph, point);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ((*sweep)[i].result.iterations, cold->iterations)
        << "p = " << grid[i];
  }
}

}  // namespace
}  // namespace d2pr
