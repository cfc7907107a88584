// Seeded randomized property tests for certified top-k serving: over 50
// random graphs (the power-law + bipartite-projection family of
// tests/router_fuzz_test.cc) and random (p, alpha, beta, k, seeds)
// mixes, every entry the bounded-push solver certifies must belong to
// the exact top-k computed by power iteration — near-ties within 1e-9
// excused — and the served lower bounds must never overshoot the exact
// scores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "datagen/bipartite_world.h"
#include "datagen/classic_generators.h"
#include "datagen/projection.h"

namespace d2pr {
namespace {

constexpr int kNumCases = 50;
constexpr int kRequestsPerCase = 2;
constexpr double kNearTie = 1e-9;

/// Alternates between a power-law (preferential attachment) graph and a
/// bipartite member-member projection; every fourth case is weighted —
/// the same family the partition fuzz suite draws from, so coverage spans
/// the degree regimes the bound index actually prunes on.
Result<CsrGraph> FuzzGraph(int case_id) {
  const auto seed = static_cast<uint64_t>(case_id);
  if (case_id % 2 == 0) {
    Rng rng(1000 + seed);
    return BarabasiAlbert(
        static_cast<NodeId>(120 + (case_id * 13) % 120),
        2 + case_id % 3, &rng);
  }
  BipartiteWorldConfig config;
  config.num_members = static_cast<NodeId>(90 + (case_id * 7) % 60);
  config.num_venues = static_cast<NodeId>(30 + case_id % 20);
  config.venue_size_max = 12;
  config.seed = 2000 + seed;
  auto world = GenerateBipartiteWorld(config);
  if (!world.ok()) return world.status();
  ProjectionConfig projection;
  projection.weighted = case_id % 4 == 1;
  return ProjectMembers(*world, projection);
}

std::vector<NodeId> ExactTopK(const std::vector<double>& scores, size_t k) {
  std::vector<NodeId> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const double sa = scores[static_cast<size_t>(a)];
    const double sb = scores[static_cast<size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  order.resize(std::min(k, order.size()));
  return order;
}

TEST(TopKFuzzTest, CertifiedEntriesBelongToExactTopKOnRandomMixes) {
  int certified_seen = 0;
  int fully_certified_responses = 0;
  for (int case_id = 0; case_id < kNumCases; ++case_id) {
    SCOPED_TRACE("case " + std::to_string(case_id));
    auto graph = FuzzGraph(case_id);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ASSERT_GT(graph->num_nodes(), 0);
    D2prEngine engine = D2prEngine::Borrowing(*graph);

    Rng rng(3000 + static_cast<uint64_t>(case_id));
    for (int i = 0; i < kRequestsPerCase; ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      RankRequest request;
      request.p = rng.Uniform(-1.5, 2.0);
      request.alpha = rng.Uniform(0.5, 0.9);
      request.beta = graph->weighted() ? rng.Uniform() : 0.0;
      const auto num_seeds = static_cast<size_t>(rng.UniformInt(1, 3));
      while (request.seeds.size() < num_seeds) {
        const auto seed = static_cast<NodeId>(
            rng.UniformInt(0, graph->num_nodes() - 1));
        if (std::find(request.seeds.begin(), request.seeds.end(), seed) ==
            request.seeds.end()) {
          request.seeds.push_back(seed);
        }
      }

      RankRequest exact_request = request;
      exact_request.tolerance = 1e-12;
      exact_request.max_iterations = 3000;
      auto exact = engine.Rank(exact_request);
      ASSERT_TRUE(exact.ok()) << exact.status().ToString();
      ASSERT_TRUE(exact->converged);

      RankRequest truncated = request;
      truncated.method = SolverMethod::kForwardPush;
      truncated.push_epsilon = 1e-8;
      truncated.top_k = rng.UniformInt(3, 15);
      auto served = engine.Rank(truncated);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_TRUE(served->truncated);
      ASSERT_TRUE(served->scores.empty());
      ASSERT_EQ(served->top.size(),
                std::min(static_cast<size_t>(truncated.top_k),
                         static_cast<size_t>(graph->num_nodes())));

      const std::vector<NodeId> truth =
          ExactTopK(exact->scores, served->top.size());
      const double kth = exact->scores[static_cast<size_t>(truth.back())];
      bool all_certified = true;
      for (size_t j = 0; j < served->top.size(); ++j) {
        const RankedEntry& entry = served->top[j];
        // Served scores are certified lower bounds: never above the exact
        // score (a push epsilon of headroom for float accumulation).
        EXPECT_LE(entry.score,
                  exact->scores[static_cast<size_t>(entry.node)] + 1e-10)
            << "node " << entry.node;
        if (j > 0) {
          EXPECT_LE(entry.score, served->top[j - 1].score);
        }
        if (!entry.certified) {
          all_certified = false;
          continue;
        }
        ++certified_seen;
        const bool in_exact =
            std::find(truth.begin(), truth.end(), entry.node) != truth.end();
        const bool near_tie =
            exact->scores[static_cast<size_t>(entry.node)] >= kth - kNearTie;
        EXPECT_TRUE(in_exact || near_tie)
            << "certified node " << entry.node << " outside exact top-"
            << served->top.size();
      }
      if (all_certified) {
        ++fully_certified_responses;
        EXPECT_EQ(served->uncertainty_gap, 0.0);
      }
    }
  }
  // The property is vacuous if certification rarely fires; with epsilon
  // 1e-8 on graphs this size the solver certifies the vast majority of
  // queries outright.
  EXPECT_GT(certified_seen, 300);
  EXPECT_GT(fully_certified_responses, 60);
}

}  // namespace
}  // namespace d2pr
