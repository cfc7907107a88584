// Shared fixtures of the distributed-block-solve suites
// (dist_parity_test.cc, dist_fault_test.cc, dist_handshake_test.cc,
// dist_server_test.cc, dist_cut_test.cc): an in-process shard fleet — N
// ShardWorkers over in-memory cuts of one graph, one
// InProcessShardChannel each, and the CoordinatorOptions that handshake
// with them — plus the FaultyChannel decorator the chaos suite wraps
// around any channel to inject transport faults below the codec layer.

#ifndef D2PR_TESTS_DIST_TEST_UTIL_H_
#define D2PR_TESTS_DIST_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/transition.h"
#include "datagen/bipartite_world.h"
#include "datagen/classic_generators.h"
#include "datagen/projection.h"
#include "dist/channel.h"
#include "dist/coordinator.h"
#include "dist/shard_worker.h"
#include "graph/csr_graph.h"
#include "graph/graph_fingerprint.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {

/// \brief Transport-fault injection wrapping any ShardChannel. Faults
/// fire below the codec layer, exactly where a real network loses,
/// repeats, or mangles frames; the coordinator's fault policy must turn
/// every one of them into a clean Status — never a hang, never a
/// partial result.
class FaultyChannel : public ShardChannel {
 public:
  struct Options {
    /// Deliver the request, then lose the reply (DeadlineExceeded to the
    /// caller) on every `drop_reply_every`-th call; 0 disables. The
    /// request WAS processed — the retry must hit the worker's
    /// idempotent cached-reply path.
    int drop_reply_every = 0;
    /// Swallow the request undelivered (DeadlineExceeded, worker never
    /// saw it) on every `drop_request_every`-th call; 0 disables.
    int drop_request_every = 0;
    /// Deliver every frame twice (the duplicate's reply is discarded,
    /// as a late duplicate on a stream would be).
    bool duplicate = false;
    /// Chop the last byte off every `truncate_every`-th reply payload;
    /// 0 disables. The coordinator must reject the mangled reply, not
    /// decode garbage.
    int truncate_every = 0;
    /// After this many kSweepRequest frames have been delivered, the
    /// shard is dead: every later call is Unavailable. < 0 disables.
    int kill_after_sweeps = -1;
  };

  FaultyChannel(ShardChannel& inner, const Options& options)
      : inner_(inner), options_(options) {}

  Result<ShardFrame> Call(const ShardFrame& request,
                          int64_t deadline_ms) override {
    ++calls_;
    if (options_.kill_after_sweeps >= 0 &&
        sweeps_delivered_ >= options_.kill_after_sweeps) {
      return Status::Unavailable("injected: shard process died");
    }
    if (options_.drop_request_every > 0 &&
        calls_ % options_.drop_request_every == 0) {
      ++requests_dropped_;
      return Status::DeadlineExceeded("injected: request lost");
    }
    if (request.type == FrameType::kSweepRequest) ++sweeps_delivered_;
    Result<ShardFrame> reply = inner_.Call(request, deadline_ms);
    if (options_.duplicate) {
      // The repeated frame reaches the worker; its reply is dropped on
      // the floor exactly as the stream channel drains stale responses.
      (void)inner_.Call(request, deadline_ms);
      ++duplicates_sent_;
    }
    if (reply.ok() && options_.drop_reply_every > 0 &&
        calls_ % options_.drop_reply_every == 0) {
      ++replies_dropped_;
      return Status::DeadlineExceeded("injected: reply lost");
    }
    if (reply.ok() && options_.truncate_every > 0 &&
        calls_ % options_.truncate_every == 0 && !reply->payload.empty()) {
      reply->payload.pop_back();
      ++replies_truncated_;
    }
    return reply;
  }

  int64_t calls() const { return calls_; }
  int64_t replies_dropped() const { return replies_dropped_; }
  int64_t requests_dropped() const { return requests_dropped_; }
  int64_t duplicates_sent() const { return duplicates_sent_; }
  int64_t replies_truncated() const { return replies_truncated_; }

 private:
  ShardChannel& inner_;
  Options options_;
  int64_t calls_ = 0;
  int64_t sweeps_delivered_ = 0;
  int64_t replies_dropped_ = 0;
  int64_t requests_dropped_ = 0;
  int64_t duplicates_sent_ = 0;
  int64_t replies_truncated_ = 0;
};

/// \brief N shard workers over one graph plus one in-process channel
/// each — a whole "cluster" with no sockets and no threads.
struct DistFleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<InProcessShardChannel>> channels;
  /// One entry per shard; points at channels[s] unless a test swaps in
  /// a FaultyChannel or permutes entries.
  std::vector<ShardChannel*> raw;
};

/// Adds a created `worker` to `fleet`, behind its own in-process channel.
inline void AddWorker(DistFleet& fleet,
                      Result<std::unique_ptr<ShardWorker>> worker) {
  D2PR_CHECK(worker.ok()) << worker.status().ToString();
  fleet.workers.push_back(std::move(*worker));
  fleet.channels.push_back(
      std::make_unique<InProcessShardChannel>(*fleet.workers.back()));
  fleet.raw.push_back(fleet.channels.back().get());
}

/// A fleet of workers built by the deployment factory from in-memory
/// cuts (CutShard) — the same ShardCut a cut file loads to.
inline DistFleet MakeFleet(const CsrGraph& graph, size_t num_shards,
                           PartitionScheme scheme = PartitionScheme::kRange,
                           const TransitionConfig& config = {}) {
  auto partition = GraphPartition::Build(
      graph, {.scheme = scheme, .num_shards = num_shards});
  D2PR_CHECK(partition.ok()) << partition.status().ToString();
  DistFleet fleet;
  for (size_t s = 0; s < num_shards; ++s) {
    auto cut = CutShard(graph, *partition, s);
    D2PR_CHECK(cut.ok()) << cut.status().ToString();
    AddWorker(fleet, ShardWorker::Create(std::move(cut).value(), config));
  }
  return fleet;
}

/// Coordinator options for a fleet over `graph`, metric vector included:
/// every worker asks for it on its first solve.
inline CoordinatorOptions MakeCoordinatorOptions(
    const CsrGraph& graph, PartitionScheme scheme = PartitionScheme::kRange,
    const TransitionConfig& config = {}) {
  CoordinatorOptions options;
  options.scheme = scheme;
  options.num_nodes = graph.num_nodes();
  options.graph_fingerprint = GraphFingerprint(graph);
  options.key = ResolveTransitionKey(graph, config);
  options.metric_values = MetricValues(graph, options.key.metric);
  return options;
}

/// \brief The seeded graph family of partition_fuzz_test.cc, shared so
/// the distributed parity fuzz sweeps the same power-law and
/// bipartite-projection graphs (weighted every fourth case) the
/// in-process parity fuzz proved the block solvers on.
inline Result<CsrGraph> DistFuzzGraph(int case_id) {
  const auto seed = static_cast<uint64_t>(case_id);
  if (case_id % 2 == 0) {
    Rng rng(4000 + seed);
    return BarabasiAlbert(static_cast<NodeId>(100 + (case_id * 17) % 140),
                          2 + case_id % 3, &rng);
  }
  BipartiteWorldConfig config;
  config.num_members = static_cast<NodeId>(80 + (case_id * 11) % 70);
  config.num_venues = static_cast<NodeId>(25 + case_id % 25);
  config.venue_size_max = 12;
  config.seed = 5000 + seed;
  auto world = GenerateBipartiteWorld(config);
  if (!world.ok()) return world.status();
  ProjectionConfig projection;
  projection.weighted = case_id % 4 == 1;
  return ProjectMembers(*world, projection);
}

}  // namespace d2pr

#endif  // D2PR_TESTS_DIST_TEST_UTIL_H_
