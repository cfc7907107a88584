// Distributed-vs-in-process parity: the DistributedCoordinator driving
// an in-process shard fleet must reproduce the reference block solvers
// bitwise (scores, iteration count, final residual) — power against
// SolvePagerankPartitioned, block Gauss-Seidel against
// SolveGaussSeidelPartitioned — across both partition schemes, shard
// counts {1, 2, 4, 8}, every dangling policy, and a 25-graph seeded fuzz
// over the same graph family partition_fuzz_test.cc proves the
// in-process solvers on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/block_solver.h"
#include "core/teleport.h"
#include "core/transition_slices.h"
#include "dist/coordinator.h"
#include "dist_test_util.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"
#include "net/shard_wire.h"

namespace d2pr {
namespace {

Result<PagerankResult> ReferenceSolve(const CsrGraph& graph,
                                      PartitionScheme scheme,
                                      size_t num_shards, SolverMethod method,
                                      const TransitionConfig& config,
                                      const std::vector<double>& teleport,
                                      const PagerankOptions& options) {
  auto partition = GraphPartition::Build(
      graph, {.scheme = scheme, .num_shards = num_shards,
              .build_out_csr = false});
  if (!partition.ok()) return partition.status();
  auto slices = BuildTransitionSlicesLocal(graph, *partition, config);
  if (!slices.ok()) return slices.status();
  return method == SolverMethod::kPower
             ? SolvePagerankPartitioned(*slices, *partition, teleport,
                                        options)
             : SolveGaussSeidelPartitioned(*slices, *partition, teleport,
                                           options);
}

void ExpectBitwiseEqual(const PagerankResult& got,
                        const PagerankResult& want) {
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.residual, want.residual);
  EXPECT_EQ(got.converged, want.converged);
}

TEST(DistParityTest, PowerBitwiseAcrossSchemesShardsAndPolicies) {
  Rng rng(42);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());

  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (size_t shards : {1, 2, 4, 8}) {
      for (DanglingPolicy dangling :
           {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop,
            DanglingPolicy::kRenormalize}) {
        SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                     std::to_string(shards) + " shards, dangling " +
                     std::to_string(static_cast<int>(dangling)));
        PagerankOptions options;
        options.alpha = 0.85;
        options.tolerance = 1e-11;
        options.max_iterations = 2000;
        options.dangling = dangling;

        DistFleet fleet = MakeFleet(*graph, shards, scheme);
        DistributedCoordinator coordinator(
            fleet.raw, MakeCoordinatorOptions(*graph, scheme));
        ASSERT_TRUE(coordinator.Handshake().ok());
        auto distributed =
            coordinator.Solve(SolverMethod::kPower, teleport, options);
        ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
        ASSERT_TRUE(distributed->converged);

        auto reference =
            ReferenceSolve(*graph, scheme, shards, SolverMethod::kPower, {},
                           teleport, options);
        ASSERT_TRUE(reference.ok());
        ExpectBitwiseEqual(*distributed, *reference);
      }
    }
  }
}

TEST(DistParityTest, GaussSeidelBitwiseAcrossSchemesAndShards) {
  Rng rng(43);
  auto graph = BarabasiAlbert(250, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> teleport = UniformTeleport(graph->num_nodes());

  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (size_t shards : {1, 2, 4, 8}) {
      for (DanglingPolicy dangling :
           {DanglingPolicy::kTeleport, DanglingPolicy::kSelfLoop}) {
        SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                     std::to_string(shards) + " shards, dangling " +
                     std::to_string(static_cast<int>(dangling)));
        PagerankOptions options;
        options.alpha = 0.85;
        options.tolerance = 1e-11;
        options.max_iterations = 2000;
        options.dangling = dangling;

        DistFleet fleet = MakeFleet(*graph, shards, scheme);
        DistributedCoordinator coordinator(
            fleet.raw, MakeCoordinatorOptions(*graph, scheme));
        ASSERT_TRUE(coordinator.Handshake().ok());
        auto distributed =
            coordinator.Solve(SolverMethod::kGaussSeidel, teleport, options);
        ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
        ASSERT_TRUE(distributed->converged);

        auto reference = ReferenceSolve(*graph, scheme, shards,
                                        SolverMethod::kGaussSeidel, {},
                                        teleport, options);
        ASSERT_TRUE(reference.ok());
        ExpectBitwiseEqual(*distributed, *reference);
      }
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

    auto reference = ReferenceSolve(*graph, scheme, shards, method, config,
                                    teleport, options);
    ASSERT_TRUE(reference.ok());
    ExpectBitwiseEqual(*distributed, *reference);
    if (method == SolverMethod::kPower) {
      ++power_cases;
    } else {
      ++gs_cases;
    }
  }
  // The sweep is only meaningful if both solvers recur.
  EXPECT_GE(power_cases, 5);
  EXPECT_GE(gs_cases, 5);
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
    auto reference = ReferenceSolve(*graph, PartitionScheme::kRange, 4,
                                    SolverMethod::kPower, {}, teleport,
                                    options);
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
CsrGraph DirectedGraphWithDanglingNodes(NodeId num_nodes, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(num_nodes, GraphKind::kDirected);
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (v % 7 == 0) continue;
    const int degree = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j < degree; ++j) {
      const auto target =
          static_cast<NodeId>(rng.UniformInt(0, num_nodes - 1));
      if (target == v) continue;
      EXPECT_TRUE(builder.AddEdge(v, target).ok());
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
    auto reference = ReferenceSolve(*graph, PartitionScheme::kHash, kShards,
                                    SolverMethod::kPower, {}, teleport,
                                    options);
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
  auto reference = ReferenceSolve(*graph, PartitionScheme::kHash, kShards,
                                  SolverMethod::kPower, {}, teleport, options);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameBits(*after, *reference));
}

}  // namespace
}  // namespace d2pr
