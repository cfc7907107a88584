// d2pr_cluster: drives a distributed block solve over shard processes.
//
// Connects one SocketShardChannel per entry of --shard-ports (shard id =
// list position; every port a `d2pr_server --shard-role` process on
// loopback), handshakes the fleet, runs the solve through
// DistributedCoordinator, and — unless --compare=false — re-runs the
// same solve in-process and checks bitwise parity (scores, iterations,
// residual). Power compares against the whole-graph SolvePagerank,
// which block power matches bit for bit. Gauss-Seidel compares against
// an in-process fleet over the same partition: one ShardWorker per
// in-memory cut (CutShard), each behind an InProcessShardChannel,
// driven by a second DistributedCoordinator with the same options.
// Exits 0 only when the solve converged-or-capped cleanly AND parity
// held; the final line reports "0 protocol errors" for smoke scripts to
// grep.
//
// The cluster launcher loads the same graph the shard processes load
// (same flags), because the parity check needs the reference solve; a
// deployment that only wants the distributed answer needs just the
// teleport vector, node count, and fingerprint.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/pagerank.h"
#include "core/transition.h"
#include "d2pr_net_flags.h"
#include "datagen/classic_generators.h"
#include "dist/channel.h"
#include "dist/coordinator.h"
#include "dist/shard_worker.h"
#include "graph/graph_fingerprint.h"
#include "graph/graph_io.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {
namespace {

constexpr char kUsage[] =
    "usage: d2pr_cluster --shard-ports=P1,P2,... [flags]\n"
    "  --shard-ports=LIST   loopback ports of the shard processes, one\n"
    "                       per shard, shard id = list position (required)\n"
    "  --host=ADDR          numeric IPv4 of the shards (default 127.0.0.1)\n"
    "  --scheme=NAME        partition scheme: range (default) or hash\n"
    "  --method=NAME        power (default) or gauss-seidel\n"
    "  --dangling=NAME      teleport (default), self-loop, or renormalize\n"
    "  --p=X --beta=X       transition model (defaults 0.5, 0)\n"
    "  --alpha=X            damping (default 0.85)\n"
    "  --tolerance=X        L1 convergence threshold (default 1e-10)\n"
    "  --max-iterations=N   iteration cap (default 200)\n"
    "  --deadline-ms=N      per-sweep round-trip deadline (default none)\n"
    "  --retries=N          resends after a timeout (default 2)\n"
    "  --compare=BOOL       check bitwise parity against an in-process\n"
    "                       solve: SolvePagerank for power, an in-process\n"
    "                       fleet over the same partition for\n"
    "                       gauss-seidel (default true)\n"
    "  --cut-dir=DIR        cross-check a directory of pre-cut shard\n"
    "                       files (d2pr_partition_cut output) against\n"
    "                       the graph and fleet shape before contacting\n"
    "                       any server\n"
    "  --graph=EDGELIST / --nodes/--edges-per-node/--gen-seed as in\n"
    "  d2pr_server (the shard processes must load the same graph)\n";

int UsageError(const char* message) {
  std::fprintf(stderr, "%s\n%s", message, kUsage);
  return 2;
}

Result<std::vector<uint16_t>> ParsePorts(const std::string& list) {
  std::vector<uint16_t> ports;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string item = list.substr(begin, end - begin);
    begin = end + 1;
    if (item.empty()) {
      return Status::InvalidArgument("--shard-ports has an empty entry");
    }
    int value = 0;
    for (char c : item) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument(
            StrCat("--shard-ports entry '", item, "' is not a port"));
      }
      value = value * 10 + (c - '0');
      if (value > 65535) break;
    }
    if (value < 1 || value > 65535) {
      return Status::InvalidArgument(
          StrCat("--shard-ports entry '", item, "' outside [1, 65535]"));
    }
    ports.push_back(static_cast<uint16_t>(value));
  }
  return ports;
}

/// The power reference: the whole-graph gather, which block power
/// matches bit for bit.
Result<PagerankResult> WholeGraphPower(const CsrGraph& graph,
                                       const TransitionConfig& config,
                                       std::span<const double> teleport,
                                       const PagerankOptions& options) {
  Result<TransitionMatrix> transition = TransitionMatrix::Build(graph, config);
  if (!transition.ok()) return transition.status();
  return SolvePagerank(graph, *transition, teleport, options);
}

/// The Gauss-Seidel reference: the same block solve over an in-process
/// fleet — one worker per in-memory cut of `graph`, each behind an
/// InProcessShardChannel, driven by a coordinator with `coord_options`.
Result<PagerankResult> InProcessFleetSolve(
    const CsrGraph& graph, size_t num_shards, const TransitionConfig& config,
    const CoordinatorOptions& coord_options,
    std::span<const double> teleport, const PagerankOptions& options) {
  Result<GraphPartition> partition = GraphPartition::Build(
      graph, {.scheme = coord_options.scheme, .num_shards = num_shards});
  if (!partition.ok()) return partition.status();
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<InProcessShardChannel>> in_process;
  std::vector<ShardChannel*> channels;
  for (size_t s = 0; s < num_shards; ++s) {
    Result<ShardCut> cut = CutShard(graph, *partition, s);
    if (!cut.ok()) return cut.status();
    Result<std::unique_ptr<ShardWorker>> worker =
        ShardWorker::Create(std::move(cut).value(), config);
    if (!worker.ok()) return worker.status();
    workers.push_back(std::move(worker).value());
    in_process.push_back(
        std::make_unique<InProcessShardChannel>(*workers.back()));
    channels.push_back(in_process.back().get());
  }
  DistributedCoordinator coordinator(channels, coord_options);
  D2PR_RETURN_NOT_OK(coordinator.Handshake());
  return coordinator.Solve(SolverMethod::kGaussSeidel, teleport, options);
}

int Run(const Flags& flags) {
  const Status valid = ValidateClusterFlags(flags);
  if (!valid.ok()) return UsageError(valid.ToString().c_str());

  Result<std::vector<uint16_t>> ports =
      ParsePorts(flags.GetString("shard-ports"));
  if (!ports.ok()) return UsageError(ports.status().ToString().c_str());
  const std::string host =
      flags.Has("host") ? flags.GetString("host") : "127.0.0.1";

  Result<CsrGraph> graph = [&]() -> Result<CsrGraph> {
    if (flags.Has("graph")) {
      return ReadEdgeListText(flags.GetString("graph"),
                              *flags.GetBool("directed", false)
                                  ? GraphKind::kDirected
                                  : GraphKind::kUndirected,
                              *flags.GetBool("weighted", false));
    }
    Rng rng(static_cast<uint64_t>(*flags.GetInt("gen-seed", 42)));
    return BarabasiAlbert(
        static_cast<NodeId>(*flags.GetInt("nodes", 10000)),
        static_cast<int32_t>(*flags.GetInt("edges-per-node", 8)), &rng);
  }();
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  const PartitionScheme scheme = flags.GetString("scheme") == "hash"
                                     ? PartitionScheme::kHash
                                     : PartitionScheme::kRange;
  const SolverMethod method = flags.GetString("method") == "gauss-seidel"
                                  ? SolverMethod::kGaussSeidel
                                  : SolverMethod::kPower;
  TransitionConfig config;
  config.p = *flags.GetDouble("p", 0.5);
  config.beta = *flags.GetDouble("beta", 0.0);

  PagerankOptions options;
  options.alpha = *flags.GetDouble("alpha", 0.85);
  options.tolerance = *flags.GetDouble("tolerance", 1e-10);
  options.max_iterations =
      static_cast<int>(*flags.GetInt("max-iterations", 200));
  const std::string dangling = flags.GetString("dangling");
  if (dangling == "self-loop") {
    options.dangling = DanglingPolicy::kSelfLoop;
  } else if (dangling == "renormalize") {
    options.dangling = DanglingPolicy::kRenormalize;
  }

  const uint64_t fingerprint = GraphFingerprint(*graph);
  if (flags.Has("cut-dir")) {
    // Preflight a directory of pre-cut shard files: every shard id must
    // have exactly one cut that matches this graph, scheme, and fleet
    // size — so a stale or mis-cut directory fails here, before any
    // server is contacted (each server still validates the one file it
    // loads).
    std::vector<int> cuts_seen(ports->size(), 0);
    std::error_code ec;
    std::filesystem::directory_iterator dir(flags.GetString("cut-dir"), ec);
    if (ec) {
      std::fprintf(stderr, "--cut-dir %s: %s\n",
                   flags.GetString("cut-dir").c_str(), ec.message().c_str());
      return 1;
    }
    for (const std::filesystem::directory_entry& entry : dir) {
      if (entry.path().extension() != ".d2psc") continue;
      Result<ShardCutMetadata> meta =
          ReadShardCutMetadata(entry.path().string());
      if (!meta.ok()) {
        std::fprintf(stderr, "%s: %s\n", entry.path().string().c_str(),
                     meta.status().ToString().c_str());
        return 1;
      }
      if (meta->graph_fingerprint != fingerprint ||
          meta->scheme != scheme ||
          meta->num_shards != ports->size()) {
        continue;  // a cut of some other graph or fleet shape
      }
      if (meta->shard_id < cuts_seen.size()) ++cuts_seen[meta->shard_id];
    }
    for (size_t s = 0; s < cuts_seen.size(); ++s) {
      if (cuts_seen[s] != 1) {
        std::fprintf(stderr,
                     "--cut-dir holds %d cuts for shard %zu of %zu "
                     "(fingerprint %016llx, %s scheme); expected exactly 1\n",
                     cuts_seen[s], s, ports->size(),
                     static_cast<unsigned long long>(fingerprint),
                     PartitionSchemeName(scheme));
        return 1;
      }
    }
    std::fprintf(stderr, "cut-dir ok: %zu matching shard cuts\n",
                 ports->size());
  }

  // Connect the fleet.
  std::vector<std::unique_ptr<SocketShardChannel>> sockets;
  std::vector<ShardChannel*> channels;
  for (size_t s = 0; s < ports->size(); ++s) {
    Result<std::unique_ptr<SocketShardChannel>> channel =
        SocketShardChannel::Connect(host, (*ports)[s]);
    if (!channel.ok()) {
      std::fprintf(stderr, "shard %zu (%s:%u): %s\n", s, host.c_str(),
                   (*ports)[s], channel.status().ToString().c_str());
      return 1;
    }
    sockets.push_back(std::move(*channel));
    channels.push_back(sockets.back().get());
  }

  CoordinatorOptions coord_options;
  coord_options.scheme = scheme;
  coord_options.num_nodes = graph->num_nodes();
  coord_options.graph_fingerprint = fingerprint;
  coord_options.key = ResolveTransitionKey(*graph, config);
  // Always carried: every shard asks for the global metric vector in its
  // handshake ack until its first slice build (the coordinator only
  // ships it when asked).
  coord_options.metric_values = MetricValues(*graph, coord_options.key.metric);
  coord_options.sweep_deadline_ms = *flags.GetInt("deadline-ms", 0);
  coord_options.max_retries = static_cast<int>(*flags.GetInt("retries", 2));
  DistributedCoordinator coordinator(channels, coord_options);

  const Status handshake = coordinator.Handshake();
  if (!handshake.ok()) {
    std::fprintf(stderr, "handshake failed: %s\n",
                 handshake.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "handshook %zu shards (%s scheme, fingerprint %llx)\n",
               channels.size(), PartitionSchemeName(scheme),
               static_cast<unsigned long long>(
                   coord_options.graph_fingerprint));

  const std::vector<double> teleport(
      static_cast<size_t>(graph->num_nodes()),
      1.0 / static_cast<double>(graph->num_nodes()));
  Result<PagerankResult> distributed =
      coordinator.Solve(method, teleport, options);
  if (!distributed.ok()) {
    std::fprintf(stderr, "distributed solve failed: %s\n",
                 distributed.status().ToString().c_str());
    return 1;
  }
  std::printf("converged=%d iterations=%d residual=%.3e\n",
              distributed->converged ? 1 : 0, distributed->iterations,
              distributed->residual);

  if (*flags.GetBool("compare", true)) {
    Result<PagerankResult> reference =
        method == SolverMethod::kPower
            ? WholeGraphPower(*graph, config, teleport, options)
            : InProcessFleetSolve(*graph, channels.size(), config,
                                  coord_options, teleport, options);
    if (!reference.ok()) {
      std::fprintf(stderr, "reference solve failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    const bool bitwise =
        distributed->iterations == reference->iterations &&
        distributed->residual == reference->residual &&
        distributed->scores.size() == reference->scores.size() &&
        std::memcmp(distributed->scores.data(), reference->scores.data(),
                    distributed->scores.size() * sizeof(double)) == 0;
    if (!bitwise) {
      std::fprintf(stderr,
                   "PARITY FAILURE: the distributed solve diverged from the "
                   "in-process reference\n");
      return 1;
    }
    std::printf("parity ok (bitwise, %d iterations)\n",
                reference->iterations);
  }

  const CoordinatorStats& stats = coordinator.stats();
  std::printf(
      "distributed solve done: %lld sweeps, %lld retries, %lld boundary "
      "values down, %lld owned values up, 0 protocol errors\n",
      static_cast<long long>(stats.sweeps),
      static_cast<long long>(stats.retries),
      static_cast<long long>(stats.boundary_values),
      static_cast<long long>(stats.owned_values));
  return 0;
}

}  // namespace
}  // namespace d2pr

int main(int argc, char** argv) {
  auto flags = d2pr::Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    return d2pr::UsageError(flags.status().ToString().c_str());
  }
  return d2pr::Run(flags.value());
}
