// Distributed-vs-in-process parity: the DistributedCoordinator driving
// an in-process shard fleet must reproduce the reference solvers bitwise
// (scores, iteration count, final residual) — power against
// SolvePagerankPartitioned and the whole-graph SolvePagerank across both
// partition schemes, shard counts {1, 2, 4, 8}, every dangling policy
// and every pair of the sink and blend terms; one-shard block Gauss-Seidel
// against the whole-graph SolvePagerankGaussSeidel, of which it is the
// one-block case — plus a 25-graph seeded fuzz over the same graph
// family partition_fuzz_test.cc proves the in-process solvers on, where
// multi-shard Gauss-Seidel keeps the block method's 1e-9 contract.
// tests/dist_server_test.cc pins multi-shard Gauss-Seidel over sockets
// bitwise to the in-process fleet.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/block_solver.h"
#include "core/gauss_seidel.h"
#include "core/teleport.h"
#include "core/transition_slices.h"
#include "dist/coordinator.h"
#include "dist_test_util.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"
#include "linalg/vec_ops.h"
#include "net/shard_wire.h"

namespace d2pr {
namespace {

/// The in-process block power solve over the same partition.
Result<PagerankResult> ReferencePower(const CsrGraph& graph,
                                      PartitionScheme scheme,
                                      size_t num_shards,
                                      const TransitionConfig& config,
                                      const std::vector<double>& teleport,
                                      const PagerankOptions& options) {
  auto partition = GraphPartition::Build(
      graph, {.scheme = scheme, .num_shards = num_shards});
  if (!partition.ok()) return partition.status();
  auto slices = BuildTransitionSlicesLocal(graph, *partition, config);
  if (!slices.ok()) return slices.status();
  return SolvePagerankPartitioned(*slices, *partition, teleport, options);
}

/// The whole-graph Gauss-Seidel solve.
Result<PagerankResult> WholeGraphGaussSeidel(
    const CsrGraph& graph, const TransitionConfig& config,
    const std::vector<double>& teleport, const PagerankOptions& options) {
  auto transition = TransitionMatrix::Build(graph, config);
  if (!transition.ok()) return transition.status();
  return SolvePagerankGaussSeidel(graph, *transition, teleport, options);
}

void ExpectBitwiseEqual(const PagerankResult& got,
                        const PagerankResult& want) {
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.residual, want.residual);
  EXPECT_EQ(got.converged, want.converged);
}

/// A directed weighted graph in which about a quarter of the nodes keep
/// no out-arcs: metric 0 at p != 0, the sink term's destinations.
CsrGraph DirectedWeightedWithSinks() {
  Rng rng(43);
  auto base = BarabasiAlbert(300, 3, &rng);
  D2PR_CHECK(base.ok());
  GraphBuilder builder(base->num_nodes(), GraphKind::kDirected,
                       /*weighted=*/true);
  for (NodeId u = 0; u < base->num_nodes(); ++u) {
    if (rng.Uniform() < 0.25) continue;
    for (NodeId v : base->OutNeighbors(u)) {
      D2PR_CHECK(builder.AddEdge(u, v, 0.5 + 3.0 * rng.Uniform()).ok());
    }
  }
  auto graph = builder.Build();
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

TEST(DistParityTest, PowerBitwiseAcrossSchemesShardsAndPolicies) {
  Rng rng(42);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const CsrGraph sinks = DirectedWeightedWithSinks();
  // Every (sink term, blend) pair of the block sweep, each checked
  // against the in-process block solve and the whole-graph gather.
  struct Case {
    const CsrGraph* graph;
    TransitionConfig config;
  };
  const Case cases[] = {{&*graph, {}},
                        {&sinks, {.p = 0.7, .beta = 0.0}},
                        {&sinks, {.p = -0.5, .beta = 0.4}},
                        {&sinks, {.p = 0.0, .beta = 0.4}}};
  bool saw_terms[2][2] = {};  // [has_sink][has_blend]

  for (const Case& c : cases) {
    const std::vector<double> teleport =
        UniformTeleport(c.graph->num_nodes());
    auto transition = TransitionMatrix::Build(*c.graph, c.config);
    ASSERT_TRUE(transition.ok()) << transition.status().ToString();
    saw_terms[transition->factors().has_sink()]
             [transition->factors().has_blend()] = true;
    for (PartitionScheme scheme :
         {PartitionScheme::kRange, PartitionScheme::kHash}) {
      for (size_t shards : {1, 2, 4, 8}) {
        for (DanglingPolicy dangling :
             {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
              DanglingPolicy::kRenormalize}) {
          SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                       std::to_string(shards) + " shards, dangling " +
                       std::to_string(static_cast<int>(dangling)) + ", p=" +
                       std::to_string(c.config.p) + " beta=" +
                       std::to_string(c.config.beta));
          PagerankOptions options;
          options.alpha = 0.85;
          options.tolerance = 1e-11;
          options.max_iterations = 2000;
          options.dangling = dangling;

          DistFleet fleet = MakeFleet(*c.graph, shards, scheme, c.config);
          DistributedCoordinator coordinator(
              fleet.raw, MakeCoordinatorOptions(*c.graph, scheme, c.config));
          ASSERT_TRUE(coordinator.Handshake().ok());
          auto distributed =
              coordinator.Solve(SolverMethod::kPower, teleport, options);
          ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
          ASSERT_TRUE(distributed->converged);

          auto reference = ReferencePower(*c.graph, scheme, shards, c.config,
                                          teleport, options);
          ASSERT_TRUE(reference.ok());
          ExpectBitwiseEqual(*distributed, *reference);
          auto whole = SolvePagerank(*c.graph, *transition, teleport, options);
          ASSERT_TRUE(whole.ok());
          ExpectBitwiseEqual(*distributed, *whole);
        }
      }
    }
  }
  for (int sink : {0, 1}) {
    for (int blend : {0, 1}) {
      EXPECT_TRUE(saw_terms[sink][blend]) << "sink " << sink << " blend "
                                          << blend;
    }
  }
}

TEST(DistParityTest, GaussSeidelRejectsRenormalizeExactlyAsInProcess) {
  Rng rng(44);
  auto graph = BarabasiAlbert(100, 2, &rng);
  ASSERT_TRUE(graph.ok());
  DistFleet fleet = MakeFleet(*graph, 2);
  DistributedCoordinator coordinator(fleet.raw,
                                     MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(coordinator.Handshake().ok());

  PagerankOptions options;
  options.dangling = DanglingPolicy::kRenormalize;
  auto result = coordinator.Solve(SolverMethod::kGaussSeidel,
                                  UniformTeleport(graph->num_nodes()),
                                  options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(),
            ValidateBlockGaussSeidelPolicy(DanglingPolicy::kRenormalize)
                .code());
}

TEST(DistParityTest, CoordinatorRejectsNonFiniteTeleport) {
  Rng rng(45);
  auto graph = BarabasiAlbert(100, 2, &rng);
  ASSERT_TRUE(graph.ok());
  DistFleet fleet = MakeFleet(*graph, 2);
  DistributedCoordinator coordinator(fleet.raw,
                                     MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(coordinator.Handshake().ok());
  std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  teleport[7] = std::nan("");
  auto result = coordinator.Solve(SolverMethod::kPower, teleport, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("finite"), std::string::npos);
}

TEST(DistParityTest, SeededFuzzMatchesBlockSolversOnRandomGraphs) {
  // 25 graphs from the partition fuzz family, cycling shard counts
  // {1, 2, 4, 8}, both schemes, both methods, random transition configs
  // and non-uniform teleports.
  int power_cases = 0;
  int gs_cases = 0;
  int gs_one_shard_cases = 0;
  for (int case_id = 0; case_id < 25; ++case_id) {
    SCOPED_TRACE("case " + std::to_string(case_id));
    auto graph = DistFuzzGraph(case_id);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();

    Rng rng(21000 + static_cast<uint64_t>(case_id));
    TransitionConfig config;
    config.p = rng.Uniform(-1.5, 2.0);
    config.beta = graph->weighted() ? rng.Uniform() : 0.0;

    PagerankOptions options;
    options.alpha = rng.Uniform(0.5, 0.9);
    options.tolerance = 1e-11;
    options.max_iterations = 5000;
    const double policy_draw = rng.Uniform();
    options.dangling = policy_draw < 0.6 ? DanglingPolicy::kTeleport
                       : policy_draw < 0.8 ? DanglingPolicy::kSelfLoop
                                           : DanglingPolicy::kRenormalize;
    const SolverMethod method =
        rng.Bernoulli(0.5) ? SolverMethod::kPower : SolverMethod::kGaussSeidel;
    if (method == SolverMethod::kGaussSeidel &&
        options.dangling == DanglingPolicy::kRenormalize) {
      options.dangling = DanglingPolicy::kTeleport;
    }

    // Every fourth case personalizes the teleport vector.
    std::vector<double> teleport = UniformTeleport(graph->num_nodes());
    if (case_id % 4 == 3) {
      double mass = 0.0;
      for (double& t : teleport) {
        t = rng.Uniform(0.1, 1.0);
        mass += t;
      }
      for (double& t : teleport) t /= mass;
    }

    const size_t shard_counts[] = {1, 2, 4, 8};
    const size_t shards = shard_counts[case_id % 4];
    const PartitionScheme scheme = case_id % 2 == 0
                                       ? PartitionScheme::kHash
                                       : PartitionScheme::kRange;

    DistFleet fleet = MakeFleet(*graph, shards, scheme, config);
    DistributedCoordinator coordinator(
        fleet.raw, MakeCoordinatorOptions(*graph, scheme, config));
    ASSERT_TRUE(coordinator.Handshake().ok());
    auto distributed = coordinator.Solve(method, teleport, options);
    ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
    ASSERT_TRUE(distributed->converged);

    if (method == SolverMethod::kPower) {
      auto reference =
          ReferencePower(*graph, scheme, shards, config, teleport, options);
      ASSERT_TRUE(reference.ok());
      ExpectBitwiseEqual(*distributed, *reference);
      ++power_cases;
      continue;
    }
    // Block Gauss-Seidel: bitwise the whole-graph solve over one shard,
    // within the block method's 1e-9 over several.
    auto reference = WholeGraphGaussSeidel(*graph, config, teleport, options);
    ASSERT_TRUE(reference.ok());
    if (shards == 1) {
      ExpectBitwiseEqual(*distributed, *reference);
      ++gs_one_shard_cases;
    } else {
      EXPECT_LE(DiffLInf(distributed->scores, reference->scores), 1e-9);
    }
    ++gs_cases;
  }
  // The sweep is only meaningful if both solvers recur.
  EXPECT_GE(power_cases, 5);
  EXPECT_GE(gs_cases, 5);
  EXPECT_GE(gs_one_shard_cases, 1);
}

TEST(DistParityTest, BackToBackSolvesOverOneFleetStayBitwise) {
  // One handshake, three solves with different options over the same
  // connections — per-solve state must fully reset between solves.
  Rng rng(45);
  auto graph = BarabasiAlbert(200, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());

  DistFleet fleet = MakeFleet(*graph, 4);
  DistributedCoordinator coordinator(fleet.raw,
                                     MakeCoordinatorOptions(*graph));
  ASSERT_TRUE(coordinator.Handshake().ok());

  for (double alpha : {0.7, 0.85, 0.9}) {
    SCOPED_TRACE("alpha " + std::to_string(alpha));
    PagerankOptions options;
    options.alpha = alpha;
    options.tolerance = 1e-11;
    options.max_iterations = 2000;
    auto distributed =
        coordinator.Solve(SolverMethod::kPower, teleport, options);
    ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
    auto reference = ReferencePower(*graph, PartitionScheme::kRange, 4, {},
                                    teleport, options);
    ASSERT_TRUE(reference.ok());
    ExpectBitwiseEqual(*distributed, *reference);
  }
}

/// Checks every sweep response passing through against a reference fold
/// rebuilt from the frames alone: the shard's retained slice starts as
/// its solve-begin `initial`, is multiplied by each request's rescale,
/// and is replaced by each response's owned slice. The advisory partials
/// must be bitwise the ascending folds over that slice — the dangling
/// mass of the new slice, and Σ|new - old|.
class PartialsCheckingChannel : public ShardChannel {
 public:
  PartialsCheckingChannel(ShardChannel& inner, const PartitionShard& shard)
      : inner_(inner), dangling_(shard.owned.size(), 0) {
    for (NodeId v : shard.dangling_owned) {
      dangling_[static_cast<size_t>(
          std::lower_bound(shard.owned.begin(), shard.owned.end(), v) -
          shard.owned.begin())] = 1;
    }
  }

  Result<ShardFrame> Call(const ShardFrame& request,
                          int64_t deadline_ms) override {
    if (request.type == FrameType::kSolveBegin) {
      auto begin = DecodeShardSolveBegin(request.payload);
      EXPECT_TRUE(begin.ok());
      if (begin.ok()) retained_ = begin->initial;
    } else if (request.type == FrameType::kSweepRequest) {
      ShardSweepRequest sweep;
      WireScores boundary;
      const Status decoded =
          DecodeShardSweepRequest(request.payload, &sweep, &boundary);
      EXPECT_TRUE(decoded.ok());
      if (decoded.ok() && sweep.has_rescale) {
        for (double& value : retained_) value *= sweep.rescale;
      }
    }
    Result<ShardFrame> reply = inner_.Call(request, deadline_ms);
    if (reply.ok() && reply->type == FrameType::kSweepResponse) {
      ShardSweepResponse response;
      WireScores view;
      const Status decoded =
          DecodeShardSweepResponse(reply->payload, &response, &view);
      EXPECT_TRUE(decoded.ok());
      if (!decoded.ok()) return reply;
      std::vector<double> owned(view.size());
      view.CopyTo(owned);
      EXPECT_EQ(owned.size(), retained_.size());
      double dangling = 0.0;
      double residual = 0.0;
      for (size_t k = 0; k < owned.size() && k < retained_.size(); ++k) {
        if (dangling_[k]) dangling += owned[k];
      }
      for (size_t k = 0; k < owned.size() && k < retained_.size(); ++k) {
        residual += std::abs(owned[k] - retained_[k]);
      }
      if (dangling != 0.0) ++nonzero_dangling_;
      EXPECT_EQ(std::memcmp(&dangling, &response.dangling_partial, 8), 0)
          << "sweep " << response.sweep << ": " << dangling << " vs "
          << response.dangling_partial;
      EXPECT_EQ(std::memcmp(&residual, &response.residual_partial, 8), 0)
          << "sweep " << response.sweep << ": " << residual << " vs "
          << response.residual_partial;
      retained_ = std::move(owned);
      ++responses_checked_;
    }
    return reply;
  }

  int64_t responses_checked() const { return responses_checked_; }
  /// Responses whose reference dangling fold is non-zero — the ones
  /// where a wrongly folded dangling partial would show.
  int64_t nonzero_dangling() const { return nonzero_dangling_; }

 private:
  ShardChannel& inner_;
  std::vector<uint8_t> dangling_;
  std::vector<double> retained_;
  int64_t responses_checked_ = 0;
  int64_t nonzero_dangling_ = 0;
};

/// A directed graph in which every seventh node has no out-arcs, so each
/// shard owns dangling nodes and the dangling partials are not all zero.
/// With `weighted`, every arc carries a random weight in [0.5, 3.5).
CsrGraph DirectedGraphWithDanglingNodes(NodeId num_nodes, uint64_t seed,
                                        bool weighted = false) {
  Rng rng(seed);
  GraphBuilder builder(num_nodes, GraphKind::kDirected, weighted);
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (v % 7 == 0) continue;
    const int degree = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j < degree; ++j) {
      const auto target =
          static_cast<NodeId>(rng.UniformInt(0, num_nodes - 1));
      if (target == v) continue;
      const double weight = weighted ? 0.5 + 3.0 * rng.Uniform() : 1.0;
      EXPECT_TRUE(builder.AddEdge(v, target, weight).ok());
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(DistParityTest, FusedPartialsEqualAnAscendingFoldOverTheOwnedSlice) {
  const CsrGraph graph = DirectedGraphWithDanglingNodes(240, 46);
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());

  // Power under every dangling policy; block Gauss-Seidel, whose sweep
  // updates the owned slice in place, under the two it accepts.
  for (SolverMethod method :
       {SolverMethod::kPower, SolverMethod::kGaussSeidel}) {
    for (size_t shards : {1, 3}) {
      for (DanglingPolicy dangling :
           {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
            DanglingPolicy::kRenormalize}) {
        if (method == SolverMethod::kGaussSeidel &&
            dangling == DanglingPolicy::kRenormalize) {
          continue;
        }
        SCOPED_TRACE(std::string(method == SolverMethod::kPower ? "power"
                                                                : "gs") +
                     ", " + std::to_string(shards) + " shards, dangling " +
                     std::to_string(static_cast<int>(dangling)));
        DistFleet fleet = MakeFleet(graph, shards, PartitionScheme::kHash);
        std::vector<std::unique_ptr<PartialsCheckingChannel>> checked;
        for (size_t s = 0; s < shards; ++s) {
          checked.push_back(std::make_unique<PartialsCheckingChannel>(
              *fleet.raw[s], fleet.workers[s]->shard()));
          fleet.raw[s] = checked.back().get();
        }
        DistributedCoordinator coordinator(
            fleet.raw,
            MakeCoordinatorOptions(graph, PartitionScheme::kHash));
        ASSERT_TRUE(coordinator.Handshake().ok());
        PagerankOptions options;
        options.tolerance = 1e-11;
        options.max_iterations = 2000;
        options.dangling = dangling;
        auto result = coordinator.Solve(method, teleport, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        for (const auto& channel : checked) {
          EXPECT_EQ(channel->responses_checked(), result->iterations);
          EXPECT_GT(channel->nonzero_dangling(), 0);
        }
      }
    }
  }
}

/// Passes every call through until armed; then the `n`-th sweep request
/// from the arming on gets a reply that lost its last byte — a malformed
/// reply that fails the solve mid-sweep, after the shard executed it.
class FailOneSweepChannel : public ShardChannel {
 public:
  explicit FailOneSweepChannel(ShardChannel& inner) : inner_(inner) {}

  void FailNthSweepFromNow(int n) { fail_at_ = sweeps_ + n; }

  Result<ShardFrame> Call(const ShardFrame& request,
                          int64_t deadline_ms) override {
    Result<ShardFrame> reply = inner_.Call(request, deadline_ms);
    if (request.type == FrameType::kSweepRequest && ++sweeps_ == fail_at_ &&
        reply.ok()) {
      reply->payload.pop_back();
    }
    return reply;
  }

 private:
  ShardChannel& inner_;
  int sweeps_ = 0;
  int fail_at_ = -1;
};

bool SameBits(const PagerankResult& a, const PagerankResult& b) {
  return a.iterations == b.iterations && a.converged == b.converged &&
         std::memcmp(&a.residual, &b.residual, sizeof(double)) == 0 &&
         a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(),
                     a.scores.size() * sizeof(double)) == 0;
}

TEST(DistParityTest, ReusedSweepBuffersRepeatSolvesBitwiseEvenAfterAFailure) {
  Rng rng(47);
  auto graph = BarabasiAlbert(260, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());
  constexpr size_t kShards = 3;

  DistFleet fleet = MakeFleet(*graph, kShards, PartitionScheme::kHash);
  FailOneSweepChannel failing(*fleet.raw[1]);
  fleet.raw[1] = &failing;
  DistributedCoordinator coordinator(
      fleet.raw, MakeCoordinatorOptions(*graph, PartitionScheme::kHash));
  ASSERT_TRUE(coordinator.Handshake().ok());

  for (DanglingPolicy dangling :
       {DanglingPolicy::kTeleport, DanglingPolicy::kRenormalize}) {
    SCOPED_TRACE("dangling " + std::to_string(static_cast<int>(dangling)));
    PagerankOptions options;
    options.tolerance = 1e-11;
    options.max_iterations = 2000;
    options.dangling = dangling;
    auto reference = ReferencePower(*graph, PartitionScheme::kHash, kShards,
                                    {}, teleport, options);
    ASSERT_TRUE(reference.ok());

    auto first = coordinator.Solve(SolverMethod::kPower, teleport, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_TRUE(SameBits(*first, *reference));
    auto second = coordinator.Solve(SolverMethod::kPower, teleport, options);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_TRUE(SameBits(*second, *first));
  }

  // A solve that fails in its fifth sweep leaves the reused buffers
  // behind; the solve after it still matches the reference bitwise.
  PagerankOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 2000;
  failing.FailNthSweepFromNow(5);
  auto before = coordinator.Solve(SolverMethod::kPower, teleport, options);
  ASSERT_FALSE(before.ok());
  EXPECT_EQ(before.status().code(), StatusCode::kUnavailable);
  auto after = coordinator.Solve(SolverMethod::kPower, teleport, options);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto reference = ReferencePower(*graph, PartitionScheme::kHash, kShards,
                                  {}, teleport, options);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameBits(*after, *reference));
}

TEST(DistParityTest, OneShardGaussSeidelIsTheWholeGraphSolveBitwise) {
  // One shard is one block: the worker sweeps its owned slots in node
  // order, exactly the rows and order of SolvePagerankGaussSeidel. Any
  // drift in the worker's slot indexing breaks the bits.
  Rng rng(48);
  auto undirected = BarabasiAlbert(230, 3, &rng);
  ASSERT_TRUE(undirected.ok());
  const CsrGraph weighted =
      DirectedGraphWithDanglingNodes(210, 49, /*weighted=*/true);
  struct Case {
    const CsrGraph* graph;
    TransitionConfig config;
  };
  const Case cases[] = {{&*undirected, {.p = -0.5}},
                        {&weighted, {.p = 0.7, .beta = 0.4}}};
  for (const Case& c : cases) {
    const CsrGraph& graph = *c.graph;
    const std::vector<double> uniform = UniformTeleport(graph.num_nodes());
    auto seeded =
        SeededTeleport(graph.num_nodes(), std::vector<NodeId>{3, 50, 101});
    ASSERT_TRUE(seeded.ok());
    const std::vector<double>& personalized = *seeded;
    for (DanglingPolicy dangling :
         {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop}) {
      for (const std::vector<double>* teleport : {&uniform, &personalized}) {
        SCOPED_TRACE(std::string(graph.directed() ? "directed weighted"
                                                  : "undirected") +
                     ", dangling " +
                     std::to_string(static_cast<int>(dangling)) +
                     (teleport == &uniform ? ", uniform" : ", seeded"));
        PagerankOptions options;
        options.tolerance = 1e-11;
        options.max_iterations = 2000;
        options.dangling = dangling;
        auto distributed =
            SolveOnFleet(graph, 1, PartitionScheme::kRange, c.config,
                         SolverMethod::kGaussSeidel, *teleport, options);
        ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
        ASSERT_TRUE(distributed->converged);
        auto reference =
            WholeGraphGaussSeidel(graph, c.config, *teleport, options);
        ASSERT_TRUE(reference.ok());
        EXPECT_TRUE(SameBits(*distributed, *reference));
      }
    }
  }
}

}  // namespace
}  // namespace d2pr
