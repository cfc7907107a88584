// Distributed block-solve benchmark: the same power iteration run three
// ways per shard count — the in-process partitioned solver
// (SolvePagerankPartitioned, the bit-parity reference), the distributed
// coordinator over in-process channels (wire codec cost, no sockets),
// and the distributed coordinator over a real loopback shard fleet
// (ShardServer per shard, SocketShardChannel per connection). Prints one
// markdown row per configuration — solve wall time, sweeps, and the
// per-sweep boundary/owned exchange volume — and asserts bitwise parity
// against the reference on every distributed run. Numbers are recorded
// in results/dist_bench.md.
//
// Not a Google Benchmark microbenchmark: the measured unit is a whole
// multi-process-shaped solve (real sockets, real threads on the loopback
// rows), so a plain steady_clock around Solve() is the harness. The
// binary defines its own main and is runnable standalone:
//
//   ./bench/perf_dist [--nodes=N] [--edges-per-node=N] [--repeats=N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/block_solver.h"
#include "core/transition_slices.h"
#include "datagen/classic_generators.h"
#include "dist/channel.h"
#include "dist/coordinator.h"
#include "dist/shard_server.h"
#include "dist/shard_worker.h"
#include "graph/graph_fingerprint.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {
namespace {

struct SweepConfig {
  NodeId nodes = 50000;
  int32_t edges_per_node = 8;
  int repeats = 3;
};

CsrGraph MakeGraph(const SweepConfig& sweep) {
  Rng rng(42);
  auto graph = BarabasiAlbert(sweep.nodes, sweep.edges_per_node, &rng);
  D2PR_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

PagerankOptions SolveOptions() {
  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-10;
  options.max_iterations = 200;
  return options;
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PrintRow(const std::string& backend, size_t shards, double best_ms,
              int iterations, int64_t boundary_values, int64_t owned_values) {
  std::printf("| %-24s | %6zu | %9.1f | %10d | %14lld | %11lld |\n",
              backend.c_str(), shards, best_ms, iterations,
              static_cast<long long>(boundary_values),
              static_cast<long long>(owned_values));
  std::fflush(stdout);
}

void CheckBitwise(const PagerankResult& got, const PagerankResult& want) {
  D2PR_CHECK_EQ(got.iterations, want.iterations);
  D2PR_CHECK(got.residual == want.residual);
  D2PR_CHECK_EQ(got.scores.size(), want.scores.size());
  D2PR_CHECK(std::memcmp(got.scores.data(), want.scores.data(),
                         got.scores.size() * sizeof(double)) == 0);
}

/// The in-process reference: one SolvePagerankPartitioned per repeat.
PagerankResult RunReference(const CsrGraph& graph, size_t shards,
                            const std::vector<double>& teleport, int repeats,
                            double* best_ms,
                            PartitionScheme scheme = PartitionScheme::kRange) {
  PartitionOptions popts;
  popts.scheme = scheme;
  popts.num_shards = shards;
  Result<GraphPartition> partition = GraphPartition::Build(graph, popts);
  D2PR_CHECK(partition.ok()) << partition.status().ToString();
  auto slices = BuildTransitionSlicesLocal(graph, *partition, {});
  D2PR_CHECK(slices.ok()) << slices.status().ToString();

  Result<PagerankResult> result = Status::Internal("unset");
  *best_ms = 1e18;
  for (int r = 0; r < repeats; ++r) {
    const int64_t t0 = NowUs();
    result = SolvePagerankPartitioned(*slices, *partition, teleport,
                                      SolveOptions());
    D2PR_CHECK(result.ok()) << result.status().ToString();
    *best_ms = std::min(*best_ms, (NowUs() - t0) / 1000.0);
  }
  return std::move(result).value();
}

struct Fleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<ShardServer>> servers;      // loopback only
  std::vector<std::unique_ptr<ShardChannel>> channels;
  std::vector<ShardChannel*> raw;
};

/// One worker per in-memory cut of a range partition.
Fleet MakeFleet(const CsrGraph& graph, size_t shards, bool loopback) {
  auto partition = GraphPartition::Build(graph, {.num_shards = shards});
  D2PR_CHECK(partition.ok()) << partition.status().ToString();
  Fleet fleet;
  for (size_t s = 0; s < shards; ++s) {
    auto cut = CutShard(graph, *partition, s);
    D2PR_CHECK(cut.ok()) << cut.status().ToString();
    auto worker = ShardWorker::Create(std::move(cut).value(), {});
    D2PR_CHECK(worker.ok()) << worker.status().ToString();
    fleet.workers.push_back(std::move(*worker));
    if (loopback) {
      fleet.servers.push_back(
          std::make_unique<ShardServer>(*fleet.workers.back()));
      D2PR_CHECK(fleet.servers.back()->Start().ok());
      auto channel = SocketShardChannel::Connect(
          "127.0.0.1", fleet.servers.back()->port());
      D2PR_CHECK(channel.ok()) << channel.status().ToString();
      fleet.channels.push_back(std::move(*channel));
    } else {
      fleet.channels.push_back(
          std::make_unique<InProcessShardChannel>(*fleet.workers.back()));
    }
    fleet.raw.push_back(fleet.channels.back().get());
  }
  return fleet;
}

void RunDistributed(const CsrGraph& graph, size_t shards, bool loopback,
                    const std::vector<double>& teleport,
                    const PagerankResult& reference, int repeats) {
  Fleet fleet = MakeFleet(graph, shards, loopback);

  CoordinatorOptions options;
  options.num_nodes = graph.num_nodes();
  options.graph_fingerprint = GraphFingerprint(graph);
  options.key = ResolveTransitionKey(graph, {});
  options.metric_values = MetricValues(graph, options.key.metric);
  DistributedCoordinator coordinator(fleet.raw, options);
  D2PR_CHECK(coordinator.Handshake().ok());

  double best_ms = 1e18;
  Result<PagerankResult> result = Status::Internal("unset");
  for (int r = 0; r < repeats; ++r) {
    const int64_t t0 = NowUs();
    result = coordinator.Solve(SolverMethod::kPower, teleport, SolveOptions());
    D2PR_CHECK(result.ok()) << result.status().ToString();
    best_ms = std::min(best_ms, (NowUs() - t0) / 1000.0);
  }
  CheckBitwise(*result, reference);

  const CoordinatorStats& stats = coordinator.stats();
  PrintRow(loopback ? "coordinator (loopback)" : "coordinator (in-proc)",
           shards, best_ms, result->iterations, stats.boundary_values,
           stats.owned_values);
  for (auto& server : fleet.servers) server->Stop();
}

/// One row of the pre-cut memory story (printed as a second table).
struct CutMemoryRow {
  size_t shards = 0;
  int64_t cut_file_bytes = 0;    // all shard files on disk, summed
  int64_t max_build_input = 0;   // largest per-worker load input
  int64_t max_resident = 0;      // largest per-worker graph bytes, post-solve
};

/// The pre-cut fleet: `d2pr_partition_cut`-shaped shard files written
/// once, each worker loading ONLY its own cut; the coordinator ships the
/// global metric vector in the first solve begin. Uses the hash scheme —
/// on a Barabási–Albert graph the range scheme concentrates the early
/// hubs in shard 0, which is the skew story, not the memory story.
CutMemoryRow RunCutFleet(const CsrGraph& graph, size_t shards,
                         const std::vector<double>& teleport, int repeats) {
  namespace fs = std::filesystem;
  constexpr PartitionScheme kScheme = PartitionScheme::kHash;
  const fs::path dir = fs::temp_directory_path() / "d2pr_perf_dist_cuts";
  fs::create_directories(dir);

  double reference_ms = 0.0;
  const PagerankResult reference =
      RunReference(graph, shards, teleport, repeats, &reference_ms, kScheme);

  PartitionOptions popts;
  popts.scheme = kScheme;
  popts.num_shards = shards;
  auto partition = GraphPartition::Build(graph, popts);
  D2PR_CHECK(partition.ok()) << partition.status().ToString();

  const uint64_t fingerprint = GraphFingerprint(graph);
  CutMemoryRow row;
  row.shards = shards;
  Fleet fleet;
  for (size_t s = 0; s < shards; ++s) {
    const std::string path =
        (dir / ShardCutFileName(fingerprint, kScheme, shards, s)).string();
    const Status saved = SaveShardCut(graph, *partition, s, path);
    D2PR_CHECK(saved.ok()) << saved.ToString();
    row.cut_file_bytes += static_cast<int64_t>(fs::file_size(path));
    auto worker = ShardWorker::CreateFromCutFile(path, {});
    D2PR_CHECK(worker.ok()) << worker.status().ToString();
    row.max_build_input =
        std::max(row.max_build_input, worker->get()->build_input_bytes());
    fleet.workers.push_back(std::move(*worker));
    fleet.channels.push_back(
        std::make_unique<InProcessShardChannel>(*fleet.workers.back()));
    fleet.raw.push_back(fleet.channels.back().get());
  }

  CoordinatorOptions options;
  options.scheme = kScheme;
  options.num_nodes = graph.num_nodes();
  options.graph_fingerprint = fingerprint;
  options.key = ResolveTransitionKey(graph, {});
  options.metric_values = MetricValues(graph, options.key.metric);
  DistributedCoordinator coordinator(fleet.raw, options);
  D2PR_CHECK(coordinator.Handshake().ok());

  double best_ms = 1e18;
  Result<PagerankResult> result = Status::Internal("unset");
  for (int r = 0; r < repeats; ++r) {
    const int64_t t0 = NowUs();
    result = coordinator.Solve(SolverMethod::kPower, teleport, SolveOptions());
    D2PR_CHECK(result.ok()) << result.status().ToString();
    best_ms = std::min(best_ms, (NowUs() - t0) / 1000.0);
  }
  CheckBitwise(*result, reference);

  // Resident bytes are meaningful AFTER the first solve: the loaded cut
  // (ghost rows, weights) is dropped once the slice is built, leaving
  // only the in-CSR each sweep actually reads.
  for (const auto& worker : fleet.workers) {
    row.max_resident = std::max(row.max_resident, worker->resident_graph_bytes());
  }

  const CoordinatorStats& stats = coordinator.stats();
  PrintRow("cut-file fleet (in-proc)", shards, best_ms, result->iterations,
           stats.boundary_values, stats.owned_values);
  return row;
}

int Run(const Flags& flags) {
  SweepConfig sweep;
  sweep.nodes = static_cast<NodeId>(*flags.GetInt("nodes", 50000));
  sweep.edges_per_node =
      static_cast<int32_t>(*flags.GetInt("edges-per-node", 8));
  sweep.repeats = static_cast<int>(*flags.GetInt("repeats", 3));

  const CsrGraph graph = MakeGraph(sweep);
  const std::vector<double> teleport(
      static_cast<size_t>(graph.num_nodes()),
      1.0 / static_cast<double>(graph.num_nodes()));
  std::printf(
      "graph: %d nodes, %lld arcs; power, alpha=0.85, tol=1e-10, best of "
      "%d solves; exchange volumes are cumulative doubles over all "
      "repeats\n\n",
      graph.num_nodes(), static_cast<long long>(graph.num_arcs()),
      sweep.repeats);
  std::printf(
      "| backend                  | shards | solve_ms | iterations | "
      "boundary_down |    owned_up |\n"
      "|--------------------------|-------:|---------:|-----------:|"
      "--------------:|------------:|\n");

  std::vector<CutMemoryRow> memory_rows;
  for (size_t shards : {1, 2, 4}) {
    double reference_ms = 0.0;
    const PagerankResult reference = RunReference(
        graph, shards, teleport, sweep.repeats, &reference_ms);
    PrintRow("in-process block solve", shards, reference_ms,
             reference.iterations, 0, 0);
    RunDistributed(graph, shards, /*loopback=*/false, teleport, reference,
                   sweep.repeats);
    RunDistributed(graph, shards, /*loopback=*/true, teleport, reference,
                   sweep.repeats);
    memory_rows.push_back(
        RunCutFleet(graph, shards, teleport, sweep.repeats));
  }

  // The memory story: what one pre-cut worker holds vs the whole
  // graph's CSR bytes, which a worker built from the graph would have to
  // ingest regardless of shard count.
  const int64_t whole_graph_input =
      static_cast<int64_t>((graph.num_nodes() + 1) * sizeof(EdgeIndex)) +
      graph.num_arcs() * static_cast<int64_t>(sizeof(NodeId));
  std::printf(
      "\npre-cut fleet memory (hash scheme; resident measured after the "
      "first solve, when the loaded cut has been dropped):\n\n"
      "| shards | cut_files_bytes | max_worker_input | "
      "max_worker_resident | whole_graph_input |\n"
      "|-------:|----------------:|-----------------:|"
      "--------------------:|------------------:|\n");
  for (const CutMemoryRow& row : memory_rows) {
    std::printf("| %6zu | %15lld | %16lld | %19lld | %17lld |\n", row.shards,
                static_cast<long long>(row.cut_file_bytes),
                static_cast<long long>(row.max_build_input),
                static_cast<long long>(row.max_resident),
                static_cast<long long>(whole_graph_input));
  }
  return 0;
}

}  // namespace
}  // namespace d2pr

int main(int argc, char** argv) {
  auto flags = d2pr::Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  return d2pr::Run(flags.value());
}
