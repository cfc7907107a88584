// d2pr_server: the network front door as a process.
//
// Stands up a graph (loaded from an edge list, or a seeded synthetic
// Barabási–Albert graph for benches and smoke tests), a serving backend
// (single-engine ServingRuntime, or an EngineRouter fleet under
// --shards/--route), and an RpcServer speaking the net/wire.h protocol on
// 127.0.0.1. Runs until SIGINT/SIGTERM, then drains and exits 0.
//
// The bound port is printed as "listening on 127.0.0.1:<port>" so
// scripts driving an ephemeral port (--port=0, the default) can scrape
// it.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "api/engine.h"
#include "common/rng.h"
#include "d2pr_net_flags.h"
#include "datagen/classic_generators.h"
#include "dist/shard_server.h"
#include "dist/shard_worker.h"
#include "graph/graph_io.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"
#include "net/server.h"
#include "serve/engine_router.h"
#include "serve/serving_runtime.h"

namespace d2pr {
namespace {

constexpr char kUsage[] =
    "usage: d2pr_server [flags]\n"
    "  --port=N             TCP port on 127.0.0.1 (default 0 = ephemeral)\n"
    "  --threads=N          solver worker threads (default 4)\n"
    "  --shards=N           serve through an N-shard engine router\n"
    "  --route=NAME         routing policy, requires --shards >= 2:\n"
    "                       replicated (default), least-loaded,\n"
    "                       partitioned (seed ownership), or subgraph\n"
    "                       (edge-partitioned block solves)\n"
    "  --max-queue=N        admission bound: shed with Unavailable once\n"
    "                       this many solves are queued (default 256)\n"
    "  --coalesce=BOOL      join identical in-flight requests\n"
    "                       (default true)\n"
    "  --graph=EDGELIST     serve this graph (with --directed/--weighted)\n"
    "  --nodes=N            synthetic graph size (default 10000;\n"
    "                       excludes --graph)\n"
    "  --edges-per-node=N   synthetic attachment degree (default 8)\n"
    "  --gen-seed=N         synthetic generator seed (default 42)\n"
    "shard role (hosts one partition shard for d2pr_cluster):\n"
    "  --shard-role         serve one shard of the distributed block\n"
    "                       solve instead of the rank front door\n"
    "  --shard-file=PATH    host the shard in this pre-cut file\n"
    "                       (d2pr_partition_cut output) WITHOUT loading\n"
    "                       the whole graph; excludes the graph and\n"
    "                       topology flags (the cut fixes them)\n"
    "  --shard-id=N         which shard this process hosts (default 0)\n"
    "  --shard-count=N      total shards of the partition (default 1)\n"
    "  --scheme=NAME        partition scheme: range (default) or hash\n"
    "  --p=X                transition degree-decoupling exponent\n"
    "                       (default 0.5)\n"
    "  --beta=X             weighted-blend beta in [0, 1] (default 0)\n";

int UsageError(const char* message) {
  std::fprintf(stderr, "%s\n%s", message, kUsage);
  return 2;
}

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int Run(const Flags& flags) {
  const Status valid = ValidateServerFlags(flags);
  if (!valid.ok()) return UsageError(valid.ToString().c_str());

  // Re-extractions succeed: ValidateServerFlags range-checked everything.
  const uint16_t port = static_cast<uint16_t>(*flags.GetInt("port", 0));
  const size_t threads = static_cast<size_t>(*flags.GetInt("threads", 4));
  const size_t shards = static_cast<size_t>(*flags.GetInt("shards", 1));
  const int64_t max_queue = *flags.GetInt("max-queue", 256);
  const bool coalesce = *flags.GetBool("coalesce", true);
  const std::string route = flags.GetString("route");
  const bool shard_role = *flags.GetBool("shard-role", false);
  const bool from_cut = shard_role && flags.Has("shard-file");

  Result<CsrGraph> graph = [&]() -> Result<CsrGraph> {
    // The pre-cut shard path is the one mode with NO whole graph in the
    // process — that absence is its point.
    if (from_cut) return CsrGraph();
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
  if (!from_cut) {
    std::fprintf(stderr, "serving %d nodes, %lld arcs\n", graph->num_nodes(),
                 static_cast<long long>(graph->num_arcs()));
  }

  if (shard_role) {
    // Shard role: host one PartitionShard behind the v2 wire and wait
    // for a DistributedCoordinator (tools/d2pr_cluster.cc).
    TransitionConfig config;
    config.p = *flags.GetDouble("p", 0.5);
    config.beta = *flags.GetDouble("beta", 0.0);
    Result<std::unique_ptr<ShardWorker>> worker =
        [&]() -> Result<std::unique_ptr<ShardWorker>> {
      if (from_cut) {
        return ShardWorker::CreateFromCutFile(flags.GetString("shard-file"),
                                              config);
      }
      // No cut file: cut this process's shard from the whole graph in
      // memory — the same ShardCut a --shard-file worker loads.
      PartitionOptions partition_options;
      partition_options.scheme = flags.GetString("scheme") == "hash"
                                     ? PartitionScheme::kHash
                                     : PartitionScheme::kRange;
      partition_options.num_shards =
          static_cast<size_t>(*flags.GetInt("shard-count", 1));
      Result<GraphPartition> partition =
          GraphPartition::Build(*graph, partition_options);
      if (!partition.ok()) return partition.status();
      Result<ShardCut> cut =
          CutShard(*graph, *partition,
                   static_cast<size_t>(*flags.GetInt("shard-id", 0)));
      if (!cut.ok()) return cut.status();
      return ShardWorker::Create(std::move(cut).value(), config);
    }();
    if (!worker.ok()) {
      std::fprintf(stderr, "%s\n", worker.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "hosting shard %zu (%zu owned nodes, %lld resident graph "
                 "bytes%s)\n",
                 (*worker)->shard_id(), (*worker)->shard().num_owned(),
                 static_cast<long long>((*worker)->resident_graph_bytes()),
                 from_cut ? ", pre-cut" : "");

    ShardServerOptions shard_server_options;
    shard_server_options.port = port;
    ShardServer shard_server(**worker, shard_server_options);
    const Status started = shard_server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("listening on 127.0.0.1:%u\n", shard_server.port());
    std::fflush(stdout);

    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    shard_server.Stop();
    const ShardServerStats& stats = shard_server.stats();
    std::fprintf(stderr,
                 "shard served %lld frames (%lld connections, %lld swept, "
                 "%lld handshake rejects, %lld protocol errors)\n",
                 static_cast<long long>(stats.frames_handled.load()),
                 static_cast<long long>(stats.connections_accepted.load()),
                 static_cast<long long>((*worker)->sweeps_executed()),
                 static_cast<long long>(stats.handshake_rejects.load()),
                 static_cast<long long>(stats.protocol_errors.load()));
    return 0;
  }

  // Either backend shape works behind the same RankBackend seam; the
  // locals live to the end of main, outliving the server.
  std::unique_ptr<D2prEngine> engine;
  std::unique_ptr<ServingRuntime> runtime;
  std::unique_ptr<EngineRouter> router;
  std::unique_ptr<RankBackend> backend;
  if (shards <= 1) {
    engine = std::make_unique<D2prEngine>(std::move(graph).value());
    ServingOptions serving_options;
    serving_options.num_threads = threads;
    runtime = std::make_unique<ServingRuntime>(
        std::shared_ptr<D2prEngine>(engine.get(), [](D2prEngine*) {}),
        serving_options);
    backend = MakeBackend(*runtime);
  } else {
    RouterOptions router_options;
    router_options.num_shards = shards;
    router_options.worker_threads = threads;
    if (route == "least-loaded") {
      router_options.strategy = ReplicaStrategy::kLeastLoaded;
    } else if (route == "partitioned") {
      router_options.policy = RoutingPolicy::kPartitionedTeleport;
    } else if (route == "subgraph") {
      router_options.policy = RoutingPolicy::kPartitionedSubgraph;
    }
    router = std::make_unique<EngineRouter>(std::move(graph).value(),
                                            router_options);
    backend = MakeBackend(*router);
  }

  ServerOptions server_options;
  server_options.port = port;
  server_options.max_queue_depth = max_queue;
  server_options.coalesce = coalesce;
  RpcServer server(*backend, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  const ServerStats& stats = server.stats();
  std::fprintf(stderr,
               "served %lld requests (%lld responses, %lld shed, %lld "
               "coalesced, %lld protocol errors)\n",
               static_cast<long long>(stats.requests_received.load()),
               static_cast<long long>(stats.responses_sent.load()),
               static_cast<long long>(stats.shed_unavailable.load()),
               static_cast<long long>(stats.coalesce_joins.load()),
               static_cast<long long>(stats.protocol_errors.load()));
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
