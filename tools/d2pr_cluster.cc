// d2pr_cluster: drives a distributed block solve over shard processes.
//
// Connects one SocketShardChannel per entry of --shard-ports (shard id =
// list position; every port a `d2pr_server --shard-role` process on
// loopback), handshakes the fleet, runs the solve through
// DistributedCoordinator, and — unless --compare=false — re-runs the
// same solve in-process (SolvePagerankPartitioned /
// SolveGaussSeidelPartitioned over the same partition) and checks
// parity: bitwise for power (scores, iterations, residual), within 1e-9
// for block Gauss-Seidel. Exits 0 only when the solve converged-or-
// capped cleanly AND parity held; the final line reports "0 protocol
// errors" for smoke scripts to grep.
//
// The cluster launcher loads the same graph the shard processes load
// (same flags), because the parity check needs the reference solve; a
// deployment that only wants the distributed answer needs just the
// teleport vector, node count, and fingerprint.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/block_solver.h"
#include "core/transition_slices.h"
#include "d2pr_net_flags.h"
#include "datagen/classic_generators.h"
#include "dist/channel.h"
#include "dist/coordinator.h"
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
    "  --compare=BOOL       check parity against the in-process block\n"
    "                       solve (default true)\n"
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
    PartitionOptions popts;
    popts.scheme = scheme;
    popts.num_shards = channels.size();
    popts.build_out_csr = false;
    Result<GraphPartition> partition = GraphPartition::Build(*graph, popts);
    if (!partition.ok()) {
      std::fprintf(stderr, "%s\n", partition.status().ToString().c_str());
      return 1;
    }
    Result<TransitionSlices> slices =
        BuildTransitionSlicesLocal(*graph, *partition, config);
    if (!slices.ok()) {
      std::fprintf(stderr, "%s\n", slices.status().ToString().c_str());
      return 1;
    }
    Result<PagerankResult> reference =
        method == SolverMethod::kPower
            ? SolvePagerankPartitioned(*slices, *partition, teleport, options)
            : SolveGaussSeidelPartitioned(*slices, *partition, teleport,
                                          options);
    if (!reference.ok()) {
      std::fprintf(stderr, "reference solve failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    if (method == SolverMethod::kPower) {
      const bool bitwise =
          distributed->iterations == reference->iterations &&
          distributed->residual == reference->residual &&
          distributed->scores.size() == reference->scores.size() &&
          std::memcmp(distributed->scores.data(), reference->scores.data(),
                      distributed->scores.size() * sizeof(double)) == 0;
      if (!bitwise) {
        std::fprintf(stderr,
                     "PARITY FAILURE: distributed power diverged from the "
                     "in-process block solve\n");
        return 1;
      }
      std::printf("parity ok (bitwise, %d iterations)\n",
                  reference->iterations);
    } else {
      double max_diff = 0.0;
      for (size_t i = 0; i < distributed->scores.size(); ++i) {
        max_diff = std::max(
            max_diff,
            std::abs(distributed->scores[i] - reference->scores[i]));
      }
      if (max_diff > 1e-9) {
        std::fprintf(stderr,
                     "PARITY FAILURE: block Gauss-Seidel diverged "
                     "(max |diff| = %.3e)\n",
                     max_diff);
        return 1;
      }
      std::printf("parity ok (max |diff| = %.3e)\n", max_diff);
    }
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
