// d2pr_partition_cut: partitions a graph once and writes one
// self-describing cut file per shard (graph/shard_cut.h), so a fleet of
// `d2pr_server --shard-role --shard-file=...` processes can host the
// distributed block solve without any of them ever loading the whole
// graph.
//
// The graph comes from the same flags d2pr_server uses (an edge list or
// the seeded synthetic generator), so cutting the synthetic bench graph
// is one command. Files land in --out-dir under the canonical name
// "cut-<fingerprint16>-<scheme>-s<shard>of<N>.d2psc"; the final line
// prints the fingerprint so launch scripts can cross-check the fleet.

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "d2pr_net_flags.h"
#include "datagen/classic_generators.h"
#include "graph/graph_fingerprint.h"
#include "graph/graph_io.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {
namespace {

constexpr char kUsage[] =
    "usage: d2pr_partition_cut --out-dir=DIR [flags]\n"
    "  --out-dir=DIR        directory the cut files are written into\n"
    "                       (required; created if missing)\n"
    "  --shards=N           number of shards to cut (default 2)\n"
    "  --scheme=NAME        partition scheme: range (default) or hash\n"
    "  --graph=EDGELIST     cut this graph (with --directed/--weighted)\n"
    "  --nodes=N            synthetic graph size (default 10000;\n"
    "                       excludes --graph)\n"
    "  --edges-per-node=N   synthetic attachment degree (default 8)\n"
    "  --gen-seed=N         synthetic generator seed (default 42)\n";

int UsageError(const char* message) {
  std::fprintf(stderr, "%s\n%s", message, kUsage);
  return 2;
}

int Run(const Flags& flags) {
  const Status valid = ValidatePartitionCutFlags(flags);
  if (!valid.ok()) return UsageError(valid.ToString().c_str());

  const size_t shards = static_cast<size_t>(*flags.GetInt("shards", 2));
  const PartitionScheme scheme = flags.GetString("scheme") == "hash"
                                     ? PartitionScheme::kHash
                                     : PartitionScheme::kRange;
  const std::string out_dir = flags.GetString("out-dir");

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

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create --out-dir %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  PartitionOptions popts;
  popts.scheme = scheme;
  popts.num_shards = shards;
  Result<GraphPartition> partition = GraphPartition::Build(*graph, popts);
  if (!partition.ok()) {
    std::fprintf(stderr, "%s\n", partition.status().ToString().c_str());
    return 1;
  }

  const uint64_t fingerprint = GraphFingerprint(*graph);
  int64_t total_bytes = 0;
  for (size_t s = 0; s < shards; ++s) {
    const std::string name = ShardCutFileName(fingerprint, scheme, shards, s);
    const std::string path =
        (std::filesystem::path(out_dir) / name).string();
    const Status saved = SaveShardCut(*graph, *partition, s, path);
    if (!saved.ok()) {
      std::fprintf(stderr, "shard %zu: %s\n", s, saved.ToString().c_str());
      return 1;
    }
    std::error_code size_ec;
    const uintmax_t bytes = std::filesystem::file_size(path, size_ec);
    if (!size_ec) total_bytes += static_cast<int64_t>(bytes);
    std::fprintf(stderr, "wrote %s (%zu owned nodes, %lld bytes)\n",
                 name.c_str(), partition->shard(s).num_owned(),
                 size_ec ? 0LL : static_cast<long long>(bytes));
  }
  std::printf("cut %d nodes, %lld arcs into %zu %s shards: %lld bytes, "
              "fingerprint %016llx\n",
              graph->num_nodes(), static_cast<long long>(graph->num_arcs()),
              shards, PartitionSchemeName(scheme),
              static_cast<long long>(total_bytes),
              static_cast<unsigned long long>(fingerprint));
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
