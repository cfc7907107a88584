// Loopback serving benchmark for the network front door: stands up an
// in-process RpcServer per configuration (the single-engine runtime at
// several thread counts), drives it with the seeded Zipf load generator
// over 127.0.0.1, and prints one markdown table row per configuration —
// p50 / p99 latency, throughput, coalescing joins, and sheds. Numbers are recorded
// in results/net_bench.md.
//
// Not a Google Benchmark microbenchmark: the measured unit is a whole
// client/server round trip with real sockets and real threads, so the
// loadgen's own percentile aggregation (net/loadgen.h) is the harness.
// The binary defines its own main and is runnable standalone:
//
//   ./bench/perf_net [--nodes=N] [--requests=N] [--connections=N]

#include <cstdio>
#include <memory>
#include <string>

#include "api/engine.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "serve/serving_runtime.h"

namespace d2pr {
namespace {

struct SweepConfig {
  NodeId nodes = 20000;
  size_t connections = 4;
  size_t requests_per_connection = 250;
};

CsrGraph MakeGraph(NodeId nodes) {
  Rng rng(42);
  auto graph = BarabasiAlbert(nodes, 4, &rng);
  D2PR_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

/// The query mix: Zipf-personalized forward-push queries — the per-query
/// regime the paper's personalized rankings run in, and skewed enough
/// (s = 1.3) that hot-node requests overlap in flight and exercise
/// coalescing.
LoadGenOptions MixFor(uint16_t port, const SweepConfig& sweep) {
  LoadGenOptions options;
  options.port = port;
  options.connections = sweep.connections;
  options.requests_per_connection = sweep.requests_per_connection;
  options.zipf_s = 1.3;
  options.seed = 7;
  options.base.p = 0.5;
  options.base.method = SolverMethod::kForwardPush;
  options.base.push_epsilon = 1e-6;
  return options;
}

void PrintRow(const std::string& label, size_t threads,
              const LoadGenReport& report, const ServerStats& stats) {
  std::printf(
      "| %-22s | %7zu | %9zu | %8.0f | %8.0f | %9.0f | %9lld | %5lld |\n",
      label.c_str(), threads, report.attempted, report.p50_us,
      report.p99_us, report.requests_per_s,
      static_cast<long long>(stats.coalesce_joins.load()),
      static_cast<long long>(stats.shed_unavailable.load()));
  std::fflush(stdout);
}

void RunRuntimeConfig(const CsrGraph& graph, size_t threads,
                      const SweepConfig& sweep) {
  D2prEngine engine = D2prEngine::Borrowing(graph);
  ServingOptions serving_options;
  serving_options.num_threads = threads;
  ServingRuntime runtime = ServingRuntime::Borrowing(engine, serving_options);
  auto backend = MakeBackend(runtime);
  RpcServer server(*backend);
  D2PR_CHECK(server.Start().ok());

  auto report = RunLoadGen(MixFor(server.port(), sweep));
  D2PR_CHECK(report.ok()) << report.status().ToString();
  D2PR_CHECK_EQ(report->failed, 0u);
  PrintRow("runtime", threads, report.value(), server.stats());
}

int Run(const Flags& flags) {
  SweepConfig sweep;
  sweep.nodes = static_cast<NodeId>(*flags.GetInt("nodes", 20000));
  sweep.connections =
      static_cast<size_t>(*flags.GetInt("connections", 4));
  sweep.requests_per_connection =
      static_cast<size_t>(*flags.GetInt("requests", 250));

  const CsrGraph graph = MakeGraph(sweep.nodes);
  std::printf("graph: %d nodes, %lld arcs; %zu connections x %zu "
              "Zipf(s=1.3) forward-push queries per row\n\n",
              graph.num_nodes(), static_cast<long long>(graph.num_arcs()),
              sweep.connections, sweep.requests_per_connection);
  std::printf(
      "| backend                | threads | attempted |  p50_us "
      "|  p99_us |      ok/s | coalesced |  shed |\n"
      "|------------------------|--------:|----------:|--------:"
      "|--------:|----------:|----------:|------:|\n");
  for (size_t threads : {1, 2, 4}) {
    RunRuntimeConfig(graph, threads, sweep);
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
