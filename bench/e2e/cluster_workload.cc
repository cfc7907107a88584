// cluster_power: the shard fleet. A 20k-node Barabási–Albert graph
// (m = 8, 320k arcs) is hash-partitioned into 2 pre-cut files
// (SaveShardCut), each loaded by a ShardWorker (CreateFromCutFile) behind
// its own in-process ShardServer on loopback; a DistributedCoordinator
// drives both over SocketShardChannel. Global power iteration, tolerance
// 1e-10: the first solve is part of set-up (it builds the shards'
// transition slices), then timed solves run back to back for --seconds
// (at least 16). Wire exchange, sequential shard round trips and the
// coordinator's folds dominate; the serve and api layers are bypassed.
// The whole fleet shares one CPU (see RunClusterPower).
//
// Every solve must be memcmp-equal to SolvePagerankPartitioned on the
// same graph (scores, iterations, residual).

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common.h"
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
#include "net/wire.h"
#include "trace.h"

namespace d2pr::e2e {
namespace {

constexpr int32_t kEdgesPerNode = 8;
constexpr size_t kShards = 2;
constexpr PartitionScheme kScheme = PartitionScheme::kHash;
constexpr int kSetupReps = 9;
constexpr int kMinSolves = 16;
constexpr int kInProcessSolves = 5;
constexpr int kBlockSolves = 3;

PagerankOptions SolveOptions() {
  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-10;
  return options;
}

bool SameBits(const PagerankResult& got, const PagerankResult& want) {
  return got.iterations == want.iterations &&
         std::memcmp(&got.residual, &want.residual, sizeof(double)) == 0 &&
         got.scores.size() == want.scores.size() &&
         std::memcmp(got.scores.data(), want.scores.data(),
                     got.scores.size() * sizeof(double)) == 0;
}

/// ShardChannel decorator: one span per call (parented to the current
/// solve, arg = shard), plus the frame bytes of sweep calls.
class TracingChannel : public ShardChannel {
 public:
  TracingChannel(std::unique_ptr<ShardChannel> inner, size_t shard)
      : inner_(std::move(inner)), shard_(shard) {}

  Result<ShardFrame> Call(const ShardFrame& request,
                          int64_t deadline_ms) override {
    const int64_t start = NowNs();
    Result<ShardFrame> reply = inner_->Call(request, deadline_ms);
    const int64_t end = NowNs();
    const bool sweep = request.type == FrameType::kSweepRequest;
    GlobalTracer().Record({sweep ? "ShardChannel::Call/sweep"
                                 : "ShardChannel::Call/control",
                           "dist", start, end, 0, GlobalTracer().root(),
                           ThreadTag(), static_cast<int64_t>(shard_)});
    if (sweep) {
      sweep_bytes_ += static_cast<int64_t>(
          2 * kFrameHeaderBytes + request.payload.size() +
          (reply.ok() ? reply->payload.size() : 0));
    }
    return reply;
  }

  int64_t sweep_bytes() const { return sweep_bytes_; }

 private:
  std::unique_ptr<ShardChannel> inner_;
  size_t shard_;
  int64_t sweep_bytes_ = 0;
};

/// Workers, their servers (socket fleets only), one channel per shard
/// and the coordinator; destroyed coordinator-first.
struct Fleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::unique_ptr<ShardChannel>> channels;
  std::vector<TracingChannel*> traced;
  std::unique_ptr<DistributedCoordinator> coordinator;
};

/// Loads one worker per cut file, serves each over loopback when
/// `sockets`, and handshakes a coordinator with them.
std::unique_ptr<Fleet> StartFleet(const std::vector<std::string>& cut_paths,
                                  const CoordinatorOptions& options,
                                  bool sockets, Report* result) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<ShardChannel*> raw;
  for (size_t s = 0; s < cut_paths.size(); ++s) {
    auto worker = ShardWorker::CreateFromCutFile(cut_paths[s], {});
    result->Check(worker.ok(), "load cut: " + worker.status().ToString());
    if (!worker.ok()) return nullptr;
    fleet->workers.push_back(std::move(worker).value());
    std::unique_ptr<ShardChannel> channel;
    if (sockets) {
      fleet->servers.push_back(
          std::make_unique<ShardServer>(*fleet->workers.back()));
      const Status started = fleet->servers.back()->Start();
      result->Check(started.ok(), "shard server: " + started.ToString());
      if (!started.ok()) return nullptr;
      auto connected = SocketShardChannel::Connect(
          "127.0.0.1", fleet->servers.back()->port());
      result->Check(connected.ok(),
                    "shard connect: " + connected.status().ToString());
      if (!connected.ok()) return nullptr;
      channel = std::move(connected).value();
    } else {
      channel = std::make_unique<InProcessShardChannel>(*fleet->workers.back());
    }
    if (kTraced && sockets) {
      auto traced = std::make_unique<TracingChannel>(std::move(channel), s);
      fleet->traced.push_back(traced.get());
      channel = std::move(traced);
    }
    raw.push_back(channel.get());
    fleet->channels.push_back(std::move(channel));
  }
  fleet->coordinator = std::make_unique<DistributedCoordinator>(raw, options);
  const Status handshake = fleet->coordinator->Handshake();
  result->Check(handshake.ok(), "handshake: " + handshake.ToString());
  if (!handshake.ok()) return nullptr;
  return fleet;
}

/// One set-up as setup_s times it: graph, partition, cut files, fleet,
/// handshake and the first solve.
struct Cluster {
  std::shared_ptr<const CsrGraph> graph;
  std::unique_ptr<GraphPartition> partition;
  std::vector<std::string> cut_paths;
  CoordinatorOptions options;
  std::vector<double> teleport;
  std::unique_ptr<Fleet> fleet;
};

std::unique_ptr<Cluster> SetUpCluster(NodeId nodes, uint64_t graph_seed,
                                      const std::string& work_dir,
                                      Report* result) {
  auto cluster = std::make_unique<Cluster>();
  Rng rng(graph_seed);
  auto graph = BarabasiAlbert(nodes, kEdgesPerNode, &rng);
  result->Check(graph.ok(), "graph generation: " + graph.status().ToString());
  if (!graph.ok()) return nullptr;
  cluster->graph = std::make_shared<const CsrGraph>(std::move(graph).value());
  const CsrGraph& g = *cluster->graph;

  PartitionOptions partition_options;
  partition_options.scheme = kScheme;
  partition_options.num_shards = kShards;
  auto partition = GraphPartition::Build(g, partition_options);
  result->Check(partition.ok(), "partition: " + partition.status().ToString());
  if (!partition.ok()) return nullptr;
  cluster->partition =
      std::make_unique<GraphPartition>(std::move(partition).value());

  const uint64_t fingerprint = GraphFingerprint(g);
  for (size_t s = 0; s < kShards; ++s) {
    const std::string path =
        (std::filesystem::path(work_dir) /
         ShardCutFileName(fingerprint, kScheme, kShards, s))
            .string();
    const Status saved = SaveShardCut(g, *cluster->partition, s, path);
    result->Check(saved.ok(), "save cut: " + saved.ToString());
    if (!saved.ok()) return nullptr;
    cluster->cut_paths.push_back(path);
  }

  cluster->options.scheme = kScheme;
  cluster->options.num_nodes = g.num_nodes();
  cluster->options.graph_fingerprint = fingerprint;
  cluster->options.key = ResolveTransitionKey(g, {});
  cluster->options.metric_values =
      MetricValues(g, cluster->options.key.metric);
  cluster->teleport.assign(static_cast<size_t>(g.num_nodes()),
                           1.0 / static_cast<double>(g.num_nodes()));
  cluster->fleet = StartFleet(cluster->cut_paths, cluster->options,
                              /*sockets=*/true, result);
  if (cluster->fleet == nullptr) return nullptr;
  auto first = cluster->fleet->coordinator->Solve(
      SolverMethod::kPower, cluster->teleport, SolveOptions());
  result->Check(first.ok(), "first solve: " + first.status().ToString());
  if (!first.ok()) return nullptr;
  return cluster;
}

/// Removes the scratch directory however the run ends.
struct WorkDir {
  explicit WorkDir(std::string path) : path(std::move(path)) {
    std::filesystem::create_directories(this->path);
  }
  ~WorkDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  std::string path;
};

/// The in-process block solve over the same partition, with the
/// BlockParallelFor hook timing every sweep round and shard sweep.
void AddBlockSolveMetrics(const Cluster& cluster,
                          const TransitionSlices& slices, Report* result) {
  std::vector<double> solve_ms, shard_sum_ms, fold_ms;
  for (int r = 0; r < kBlockSolves; ++r) {
    const uint64_t id = GlobalTracer().NewId();
    int64_t rounds_ns = 0;
    int64_t shards_ns = 0;
    const BlockParallelFor hook =
        [&](size_t count, const std::function<void(size_t)>& fn) {
          const int64_t round_start = NowNs();
          for (size_t i = 0; i < count; ++i) {
            const int64_t start = NowNs();
            fn(i);
            const int64_t end = NowNs();
            shards_ns += end - start;
            GlobalTracer().Record({"block.shard_sweep", "core", start, end, 0,
                                   id, ThreadTag(), static_cast<int64_t>(i)});
          }
          const int64_t round_end = NowNs();
          rounds_ns += round_end - round_start;
          GlobalTracer().Record({"BlockParallelFor", "core", round_start,
                                 round_end, 0, id, ThreadTag(), 0});
        };
    const int64_t t0 = NowNs();
    auto solved = SolvePagerankPartitioned(slices, *cluster.partition,
                                           cluster.teleport, SolveOptions(),
                                           hook);
    const int64_t t1 = NowNs();
    GlobalTracer().Record({"SolvePagerankPartitioned", "core", t0, t1, id, 0,
                           ThreadTag(), 0});
    result->Check(solved.ok(), "block solve: " + solved.status().ToString());
    solve_ms.push_back(NsToMs(t1 - t0));
    shard_sum_ms.push_back(NsToMs(shards_ns));
    fold_ms.push_back(NsToMs(t1 - t0 - rounds_ns));
  }
  result->AddLayer("core.block_solve_ms", Median(solve_ms), "ms");
  result->AddLayer("core.shard_sweep_ms.sum", Median(shard_sum_ms), "ms");
  result->AddLayer("core.block_fold_ms", Median(fold_ms), "ms");
}

}  // namespace

Report RunClusterPower(const Options& options) {
  Report result;
  const NodeId nodes = options.smoke ? 2000 : 20000;
  WorkDir work_dir(options.work_dir);
  // The coordinator calls the shards one after the other, so no two parts
  // of a solve ever run at once. On one CPU a round trip costs the
  // program's own work and two context switches, instead of two wake-ups
  // of another CPU, whose cost on a VM depends on the host.
  PinToLastCpu();

  std::unique_ptr<Cluster> cluster;
  const double setup_s = MedianSetupSeconds(
      kSetupReps, [&] { cluster.reset(); },
      [&] {
        cluster = SetUpCluster(nodes, SubSeed(options.seed, 1), work_dir.path,
                               &result);
      });
  if (cluster == nullptr) return result;

  auto slices =
      BuildTransitionSlicesLocal(*cluster->graph, *cluster->partition, {});
  result.Check(slices.ok(), "slices: " + slices.status().ToString());
  if (!slices.ok()) return result;
  auto reference = SolvePagerankPartitioned(*slices, *cluster->partition,
                                            cluster->teleport, SolveOptions());
  result.Check(reference.ok(), "reference: " + reference.status().ToString());
  if (!reference.ok()) return result;

  DistributedCoordinator& coordinator = *cluster->fleet->coordinator;
  const int64_t sweeps_before = coordinator.stats().sweeps;
  int64_t bytes_before = 0;
  for (TracingChannel* channel : cluster->fleet->traced) {
    bytes_before += channel->sweep_bytes();
  }
  const size_t spans_before = GlobalTracer().size();
  std::vector<double> solve_ms;
  std::vector<uint64_t> solve_ids;
  const int64_t run_start = NowNs();
  const int64_t run_deadline =
      run_start + static_cast<int64_t>(options.seconds * 1e9);
  while (static_cast<int>(solve_ms.size()) < kMinSolves ||
         NowNs() < run_deadline) {
    const uint64_t id = kTraced ? GlobalTracer().NewId() : 0;
    GlobalTracer().SetRoot(id);
    const int64_t t0 = NowNs();
    auto solved = coordinator.Solve(SolverMethod::kPower, cluster->teleport,
                                    SolveOptions());
    const int64_t t1 = NowNs();
    GlobalTracer().SetRoot(0);
    ++result.attempted;
    if (!solved.ok()) {
      ++result.failed;
      result.Check(false, "distributed solve: " + solved.status().ToString());
      break;
    }
    result.Check(SameBits(*solved, *reference),
                 "distributed solve is not memcmp-equal to "
                 "SolvePagerankPartitioned");
    if (kTraced) {
      GlobalTracer().Record({"DistributedCoordinator::Solve", "dist", t0, t1,
                             id, 0, ThreadTag(), solved->iterations});
    }
    solve_ms.push_back(NsToMs(t1 - t0));
    solve_ids.push_back(id);
  }
  const int64_t run_end = NowNs();
  if (solve_ms.empty()) return result;

  double total_ms = 0.0;
  for (double ms : solve_ms) total_ms += ms;
  result.Add("setup_s", setup_s, "s");
  result.Add("latency_p50_ms", Median(solve_ms), "ms");
  result.Add("latency_p90_ms", TailPercentile(solve_ms, 0.9), "ms");
  result.Add("throughput_per_s",
             static_cast<double>(solve_ms.size()) / (total_ms / 1e3), "1/s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.samples = {{"solves", static_cast<int64_t>(solve_ms.size())},
                    {"setup_reps", kSetupReps}};
  result.info = {{"nodes", cluster->graph->num_nodes()},
                 {"arcs", static_cast<double>(cluster->graph->num_arcs())},
                 {"shards", kShards},
                 {"iterations", reference->iterations}};

  if (kTraced) {
    const std::vector<Span> spans = GlobalTracer().Snapshot();
    const std::vector<Span> sweeps = SpansNamed(
        spans, "ShardChannel::Call/sweep", run_start, run_end);
    const std::vector<double> rtt = DurationsMs(sweeps);
    result.AddLayer("dist.sweep_rtt_ms.p50", Percentile(rtt, 0.5), "ms");
    result.AddLayer("dist.sweep_rtt_ms.p99", Percentile(rtt, 0.99), "ms");
    std::vector<double> shard_mean(kShards, 0.0);
    for (size_t s = 0; s < kShards; ++s) {
      std::vector<double> own;
      for (const Span& span : sweeps) {
        if (span.arg == static_cast<int64_t>(s)) own.push_back(span.ms());
      }
      shard_mean[s] = Mean(own);
      result.AddLayer("dist.shard_rtt_ms.s" + std::to_string(s), shard_mean[s],
                      "ms");
    }
    const auto [lo, hi] =
        std::minmax_element(shard_mean.begin(), shard_mean.end());
    result.AddLayer("dist.straggler_ratio", *lo > 0 ? *hi / *lo : 0.0,
                    "ratio");

    // Per solve: time inside channel calls vs the coordinator's own.
    std::vector<double> channel_ms, self_ms;
    for (size_t k = 0; k < solve_ids.size(); ++k) {
      double inside = 0.0;
      for (const Span& span : spans) {
        if (span.parent == solve_ids[k] &&
            std::string_view(span.name).starts_with("ShardChannel::Call")) {
          inside += span.ms();
        }
      }
      channel_ms.push_back(inside);
      self_ms.push_back(solve_ms[k] - inside);
    }
    const int64_t sweeps_done = coordinator.stats().sweeps - sweeps_before;
    int64_t bytes = -bytes_before;
    for (TracingChannel* channel : cluster->fleet->traced) {
      bytes += channel->sweep_bytes();
    }
    result.AddLayer("dist.solve_ms", Median(solve_ms), "ms");
    result.AddLayer("dist.channel_ms", Median(channel_ms), "ms");
    result.AddLayer("dist.coordinator_self_ms", Median(self_ms), "ms");
    result.AddLayer("dist.bytes_per_sweep",
                    sweeps_done > 0 ? static_cast<double>(bytes) / sweeps_done
                                    : 0.0,
                    "bytes");
    result.AddLayer("dist.sweeps_per_solve",
                    static_cast<double>(sweeps_done) /
                        static_cast<double>(solve_ms.size()),
                    "count");
    result.AddLayer("bench.trace_overhead_ratio",
                    TraceOverheadRatio(GlobalTracer().size() - spans_before,
                                       run_end - run_start),
                    "ratio");

    // Same cut files, same coordinator, no sockets: the codec-only cost.
    auto in_process = StartFleet(cluster->cut_paths, cluster->options,
                                 /*sockets=*/false, &result);
    if (in_process != nullptr) {
      std::vector<double> in_process_ms;
      for (int r = 0; r <= kInProcessSolves; ++r) {  // r == 0 builds slices
        const int64_t t0 = NowNs();
        auto solved = in_process->coordinator->Solve(
            SolverMethod::kPower, cluster->teleport, SolveOptions());
        const int64_t t1 = NowNs();
        result.Check(solved.ok() && SameBits(*solved, *reference),
                     "in-process fleet solve is not memcmp-equal to "
                     "SolvePagerankPartitioned");
        if (r > 0) in_process_ms.push_back(NsToMs(t1 - t0));
      }
      result.AddLayer("dist.inproc_solve_ms", Median(in_process_ms), "ms");
    }
    AddBlockSolveMetrics(*cluster, *slices, &result);
  }
  return result;
}

}  // namespace d2pr::e2e
