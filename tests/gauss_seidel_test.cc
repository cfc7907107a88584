#include "core/gauss_seidel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/teleport.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"
#include "linalg/vec_ops.h"

namespace d2pr {
namespace {

/// One destination's pull over live source values, as the block sweep's
/// kernel once was: kept here, apart from that kernel, so the reference
/// below does not compare the kernel with itself. `source(idx)` maps an
/// in-arc to its source, value(idx) is that source's current value and
/// weight(idx) the arc's weight.
template <typename SourceFn, typename ValueFn, typename WeightFn>
double ReferencePullLive(const TransitionFactors& f, size_t dst,
                         size_t begin, size_t end, SourceFn source,
                         ValueFn value, WeightFn weight) {
  const double* scale =
      f.has_sink() && f.sink[dst] ? f.sink_c.data() : f.c.data();
  double sum = 0.0;
  for (size_t idx = begin; idx < end; ++idx) {
    sum += scale[source(idx)] * value(idx);
  }
  double blend_sum = 0.0;
  if (f.has_blend()) {
    for (size_t idx = begin; idx < end; ++idx) {
      blend_sum += weight(idx) * (f.blend_c[source(idx)] * value(idx));
    }
  }
  const double value_at_dst = f.u[dst] * sum;
  return f.has_blend() ? value_at_dst + blend_sum : value_at_dst;
}

/// A plain Gauss-Seidel loop over the transposed graph, kept as the
/// reference SolvePagerankGaussSeidel (the one-block case of the block
/// iteration) must match by memcmp: sweep nodes in ascending order, each
/// reading its sources' latest values along its in-row, with the
/// dangling mass folded from the previous iterate, then L1-normalize.
PagerankResult ReferenceGaussSeidel(const CsrGraph& graph,
                                    const TransitionMatrix& transition,
                                    std::span<const double> teleport,
                                    const PagerankOptions& options) {
  const NodeId n = graph.num_nodes();
  PagerankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  const CsrGraph reverse = graph.Transpose();
  const auto sources = reverse.targets();
  const auto reverse_weights = reverse.weights();
  const TransitionFactors& factors = transition.factors();
  const std::vector<NodeId> dangling = transition.DanglingNodes();

  std::vector<double> x(teleport.begin(), teleport.end());
  std::vector<double> previous(x);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    double dangling_mass = 0.0;
    for (NodeId v : dangling) dangling_mass += x[static_cast<size_t>(v)];

    for (NodeId v = 0; v < n; ++v) {
      const size_t begin = static_cast<size_t>(reverse.ArcBegin(v));
      const size_t end = begin + static_cast<size_t>(reverse.OutDegree(v));
      const auto source = [&](size_t e) {
        return static_cast<size_t>(sources[e]);
      };
      const double incoming = ReferencePullLive(
          factors, static_cast<size_t>(v), begin, end, source,
          [&](size_t e) { return x[source(e)]; },
          [&](size_t e) { return reverse_weights[e]; });
      double value = options.alpha * incoming +
                     (1.0 - options.alpha) * teleport[static_cast<size_t>(v)];
      switch (options.dangling) {
        case DanglingPolicy::kTeleport:
          value += options.alpha * dangling_mass *
                   teleport[static_cast<size_t>(v)];
          break;
        case DanglingPolicy::kSelfLoop:
          if (transition.IsDangling(v)) value /= (1.0 - options.alpha);
          break;
        case DanglingPolicy::kRenormalize:
          break;
      }
      x[static_cast<size_t>(v)] = value;
    }
    NormalizeL1(x);

    result.iterations = iter;
    result.residual = DiffL1(x, previous);
    previous = x;
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores = std::move(x);
  return result;
}

/// A random graph of `n` nodes, `directed` or not, weighted or not. With
/// `dangling`, every fifth node has no out-arcs (in an undirected graph,
/// no arcs at all); every other node has at least one.
CsrGraph CorpusGraph(NodeId n, bool directed, bool weighted, bool dangling,
                     uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n, directed ? GraphKind::kDirected
                                   : GraphKind::kUndirected,
                       weighted);
  const auto sourceless = [&](NodeId v) { return dangling && v % 5 == 0; };
  // An undirected arc into a dangling node would give it an out-arc.
  const auto reachable = [&](NodeId v) { return directed || !sourceless(v); };
  for (NodeId v = 0; v < n; ++v) {
    if (sourceless(v)) continue;
    const NodeId ring = (v + 1) % n;  // keeps v's out-row non-empty
    const int degree = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j <= degree; ++j) {
      const auto target =
          j == 0 ? (reachable(ring) ? ring : (ring + 1) % n)
                 : static_cast<NodeId>(rng.UniformInt(0, n - 1));
      if (target == v || !reachable(target)) continue;
      const double weight = weighted ? 0.5 + 3.0 * rng.Uniform() : 1.0;
      EXPECT_TRUE(builder.AddEdge(v, target, weight).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

void ExpectSameBits(const PagerankResult& got, const PagerankResult& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(std::memcmp(&got.residual, &want.residual, sizeof(double)), 0)
      << got.residual << " vs " << want.residual;
  ASSERT_EQ(got.scores.size(), want.scores.size());
  if (got.scores.empty()) return;  // memcmp must not see null pointers
  EXPECT_EQ(std::memcmp(got.scores.data(), want.scores.data(),
                        got.scores.size() * sizeof(double)),
            0);
}

TEST(GaussSeidelTest, OneBlockSolveIsThePlainLoopBitwise) {
  // Undirected and directed, weighted and unweighted, with and without
  // dangling nodes, every p sign and the sink term's regime, the β blend
  // on and off, every dangling policy, uniform and seeded teleports.
  std::vector<CsrGraph> graphs;
  graphs.push_back(CorpusGraph(60, /*directed=*/false, /*weighted=*/false,
                               /*dangling=*/false, 1));
  graphs.push_back(CorpusGraph(55, false, true, true, 2));
  graphs.push_back(CorpusGraph(50, true, false, false, 3));
  graphs.push_back(CorpusGraph(45, true, true, true, 4));
  int cases = 0;
  for (const CsrGraph& graph : graphs) {
    const std::vector<double> uniform = UniformTeleport(graph.num_nodes());
    auto seeded = SeededTeleport(graph.num_nodes(),
                                 std::vector<NodeId>{1, 7, 12});
    ASSERT_TRUE(seeded.ok());
    const std::vector<double>& personalized = *seeded;
    for (double p : {-1.5, 0.0, 0.7, 2.0}) {
      for (double beta : {0.0, 0.4}) {
        auto transition =
            TransitionMatrix::Build(graph, {.p = p, .beta = beta});
        ASSERT_TRUE(transition.ok()) << transition.status().ToString();
        for (DanglingPolicy policy :
             {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
              DanglingPolicy::kRenormalize}) {
          for (const std::vector<double>* teleport :
               {&uniform, &personalized}) {
            SCOPED_TRACE(StrCat(graph.directed() ? "directed" : "undirected",
                                graph.weighted() ? " weighted" : "", " p=", p,
                                " beta=", beta, " policy=",
                                static_cast<int>(policy),
                                teleport == &uniform ? " uniform"
                                                     : " seeded"));
            PagerankOptions options;
            options.tolerance = 1e-12;
            options.max_iterations = 300;
            options.dangling = policy;
            auto solved = SolvePagerankGaussSeidel(graph, *transition,
                                                   *teleport, options);
            ASSERT_TRUE(solved.ok()) << solved.status().ToString();
            ExpectSameBits(*solved, ReferenceGaussSeidel(graph, *transition,
                                                         *teleport, options));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 4 * 2 * 3 * 2);

  // The empty graph.
  const CsrGraph empty;
  auto transition = TransitionMatrix::Build(empty, {});
  ASSERT_TRUE(transition.ok());
  auto solved = SolvePagerankGaussSeidel(empty, *transition, {});
  ASSERT_TRUE(solved.ok());
  ExpectSameBits(*solved, ReferenceGaussSeidel(empty, *transition, {}, {}));
}

TransitionMatrix Transition(const CsrGraph& graph, double p = 0.0) {
  auto result = TransitionMatrix::Build(graph, {.p = p});
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

class GaussSeidelVsPowerTest : public ::testing::TestWithParam<double> {};

TEST_P(GaussSeidelVsPowerTest, AgreesWithPowerIteration) {
  Rng rng(1);
  auto graph = BarabasiAlbert(400, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph, GetParam());
  PagerankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  auto power = SolvePagerank(*graph, t, options);
  auto gauss = SolvePagerankGaussSeidel(*graph, t, options);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_TRUE(power->converged);
  EXPECT_TRUE(gauss->converged);
  EXPECT_LT(DiffLInf(power->scores, gauss->scores), 1e-9)
      << "p = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PGrid, GaussSeidelVsPowerTest,
                         ::testing::Values(-2.0, -0.5, 0.0, 0.5, 2.0));

TEST(GaussSeidelTest, ConvergesInFewerSweepsThanPower) {
  Rng rng(2);
  auto graph = BarabasiAlbert(1000, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  PagerankOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 500;
  auto power = SolvePagerank(*graph, t, options);
  auto gauss = SolvePagerankGaussSeidel(*graph, t, options);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_LT(gauss->iterations, power->iterations);
}

TEST(GaussSeidelTest, ScoresFormDistribution) {
  Rng rng(3);
  auto graph = ErdosRenyi(300, 900, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph, 1.0);
  auto result = SolvePagerankGaussSeidel(*graph, t, {});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(Sum(result->scores), 1.0, 1e-9);
  for (double s : result->scores) EXPECT_GE(s, 0.0);
}

TEST(GaussSeidelTest, HandlesDanglingTeleportPolicy) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  PagerankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  auto power = SolvePagerank(*graph, t, options);
  auto gauss = SolvePagerankGaussSeidel(*graph, t, options);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_LT(DiffLInf(power->scores, gauss->scores), 1e-8);
}

TEST(GaussSeidelTest, PersonalizedTeleport) {
  Rng rng(4);
  auto graph = WattsStrogatz(200, 3, 0.1, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph, 0.5);
  auto teleport = SeededTeleport(200, std::vector<NodeId>{42});
  ASSERT_TRUE(teleport.ok());
  PagerankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  auto power = SolvePagerank(*graph, t, *teleport, options);
  auto gauss = SolvePagerankGaussSeidel(*graph, t, *teleport, options);
  ASSERT_TRUE(power.ok());
  ASSERT_TRUE(gauss.ok());
  EXPECT_LT(DiffLInf(power->scores, gauss->scores), 1e-9);
}

TEST(GaussSeidelTest, ValidationMirrorsPowerIteration) {
  GraphBuilder builder(2, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  PagerankOptions bad;
  bad.alpha = 1.0;
  EXPECT_FALSE(SolvePagerankGaussSeidel(*graph, t, bad).ok());
  bad = PagerankOptions();
  bad.tolerance = -1.0;
  EXPECT_FALSE(SolvePagerankGaussSeidel(*graph, t, bad).ok());
  std::vector<double> short_teleport{1.0};
  EXPECT_FALSE(
      SolvePagerankGaussSeidel(*graph, t, short_teleport, {}).ok());
}

TEST(GaussSeidelTest, RejectsNonFiniteTeleport) {
  GraphBuilder builder(3, GraphKind::kDirected);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  TransitionMatrix t = Transition(*graph);
  const std::vector<double> teleport{0.5, std::nan(""), 0.5};
  auto solved = SolvePagerankGaussSeidel(*graph, t, teleport, {});
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solved.status().message().find("finite"), std::string::npos);
}

TEST(GaussSeidelTest, EmptyGraphConverges) {
  CsrGraph graph;
  TransitionMatrix t = Transition(graph);
  auto result = SolvePagerankGaussSeidel(graph, t, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
}

}  // namespace
}  // namespace d2pr
