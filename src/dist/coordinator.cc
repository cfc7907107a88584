#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/string_util.h"
#include "core/block_solver.h"
#include "net/shard_wire.h"

namespace d2pr {

TransitionKey ResolveTransitionKey(const CsrGraph& graph,
                                   const TransitionConfig& config) {
  TransitionKey key;
  key.p = config.p;
  key.beta = graph.weighted() ? config.beta : 0.0;
  key.metric = ResolveMetric(graph, config.metric);
  return key;
}

DistributedCoordinator::DistributedCoordinator(
    std::vector<ShardChannel*> channels, const CoordinatorOptions& options)
    : channels_(std::move(channels)), options_(options) {}

size_t DistributedCoordinator::OwnerOf(NodeId node) const {
  return PartitionOwnerOf(options_.scheme, node, options_.num_nodes,
                          channels_.size());
}

int64_t DistributedCoordinator::NowMs() const {
  if (options_.clock_ms) return options_.clock_ms();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<ShardFrame> DistributedCoordinator::CallShard(
    size_t shard, const ShardFrame& request, FrameType expected_reply) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    Result<ShardFrame> reply =
        channels_[shard]->Call(request, options_.sweep_deadline_ms);
    if (!reply.ok()) {
      const StatusCode code = reply.status().code();
      if (code == StatusCode::kDeadlineExceeded) {
        // The request may or may not have been processed; resending is
        // safe because every shard request is idempotent.
        last = reply.status();
        continue;
      }
      // Dead transport: the shard is gone mid-solve.
      return Status::Unavailable(StrCat("shard ", shard, " unreachable: ",
                                        reply.status().ToString()));
    }
    if (reply->type == FrameType::kStatus) {
      Status carried = Status::OK();
      Status decode = DecodeStatusPayload(reply->payload, &carried);
      if (!decode.ok()) {
        return Status::Unavailable(StrCat("shard ", shard,
                                          " sent a malformed status frame: ",
                                          decode.ToString()));
      }
      return carried.ok()
                 ? Result<ShardFrame>(std::move(*reply))
                 : Result<ShardFrame>(carried);
    }
    if (reply->type != expected_reply) {
      return Status::Unavailable(
          StrCat("shard ", shard, " replied with frame type ",
                 static_cast<int>(reply->type), ", expected ",
                 static_cast<int>(expected_reply)));
    }
    return std::move(*reply);
  }
  return Status::DeadlineExceeded(
      StrCat("shard ", shard, " timed out after ", options_.max_retries + 1,
             " attempts: ", last.ToString()));
}

Status DistributedCoordinator::Handshake() {
  if (channels_.empty()) {
    return Status::InvalidArgument("coordinator needs at least one shard");
  }
  const size_t num_shards = channels_.size();
  const NodeId n = options_.num_nodes;

  // Closed-form owned lists (the same assignment GraphPartition::Build
  // materializes; OwnerOf agrees by construction).
  owned_.assign(num_shards, {});
  for (NodeId v = 0; v < n; ++v) {
    owned_[OwnerOf(v)].push_back(v);
  }

  boundary_.assign(num_shards, {});
  sweep_requests_.assign(num_shards, {});
  needs_metric_.assign(num_shards, 0);
  dangling_.clear();

  ShardHandshake handshake;
  handshake.num_shards = static_cast<uint32_t>(num_shards);
  handshake.scheme = options_.scheme;
  handshake.graph_fingerprint = options_.graph_fingerprint;
  handshake.p = options_.key.p;
  handshake.beta = options_.key.beta;
  handshake.metric = options_.key.metric;

  for (size_t s = 0; s < num_shards; ++s) {
    handshake.shard_id = static_cast<uint32_t>(s);
    ShardFrame request;
    request.type = FrameType::kShardHandshake;
    request.request_id = next_request_id_++;
    request.payload = EncodeShardHandshake(handshake);

    ShardFrame reply;
    D2PR_ASSIGN_OR_RETURN(
        reply, CallShard(s, request, FrameType::kShardHandshakeAck));
    Result<ShardHandshakeAck> decoded = DecodeShardHandshakeAck(reply.payload);
    if (!decoded.ok()) {
      return Status::Unavailable(StrCat("shard ", s,
                                        " sent a malformed handshake ack: ",
                                        decoded.status().ToString()));
    }
    const ShardHandshakeAck& ack = *decoded;

    if (ack.num_nodes != static_cast<uint64_t>(n)) {
      return Status::FailedPrecondition(
          StrCat("shard ", s, " holds a ", ack.num_nodes,
                 "-node graph, coordinator expects ", n));
    }
    if (ack.num_owned != owned_[s].size()) {
      return Status::FailedPrecondition(
          StrCat("shard ", s, " owns ", ack.num_owned,
                 " nodes, closed-form ownership expects ",
                 owned_[s].size()));
    }
    for (const std::vector<NodeId>* list :
         {&ack.dangling_owned, &ack.boundary_sources}) {
      NodeId prev = -1;
      for (NodeId v : *list) {
        if (v < 0 || v >= n || v <= prev) {
          return Status::FailedPrecondition(
              StrCat("shard ", s, " published an invalid node list"));
        }
        prev = v;
      }
    }
    for (NodeId v : ack.dangling_owned) {
      if (OwnerOf(v) != s) {
        return Status::FailedPrecondition(
            StrCat("shard ", s, " claims dangling node ", v,
                   " it does not own"));
      }
    }
    if (ack.needs_metric_values) {
      // A shard without a slice will not accept a solve begin without
      // the metric vector; fail HERE, before any solve moves an iterate.
      if (options_.metric_values.size() != static_cast<size_t>(n)) {
        return Status::FailedPrecondition(StrCat(
            "shard ", s,
            " has no transition slice yet and needs the global metric "
            "vector, but the coordinator holds ",
            options_.metric_values.size(), " metric values for a ", n,
            "-node graph (set CoordinatorOptions::metric_values)"));
      }
      needs_metric_[s] = 1;
    }
    boundary_[s] = ack.boundary_sources;
    dangling_.insert(dangling_.end(), ack.dangling_owned.begin(),
                     ack.dangling_owned.end());
  }
  // Per-shard lists are disjoint and each ascending; one sort restores
  // the global ascending fold order.
  std::sort(dangling_.begin(), dangling_.end());
  handshaken_ = true;
  return Status::OK();
}

void DistributedCoordinator::EndSolve(uint64_t solve_id) {
  ShardSolveEnd end;
  end.solve_id = solve_id;
  const std::vector<uint8_t> payload = EncodeShardSolveEnd(end);
  for (size_t s = 0; s < channels_.size(); ++s) {
    ShardFrame request;
    request.type = FrameType::kSolveEnd;
    request.request_id = next_request_id_++;
    request.payload = payload;
    // Best effort: a failure here leaves per-solve state on the worker,
    // which its next solve begin (or session close) clears anyway.
    (void)CallShard(s, request, FrameType::kStatus);
  }
}

Status DistributedCoordinator::BeginSolve(uint64_t solve_id,
                                          SolverMethod method,
                                          const PagerankOptions& options,
                                          std::span<const double> initial,
                                          std::span<const double> teleport) {
  for (size_t s = 0; s < channels_.size(); ++s) {
    ShardSolveBegin begin;
    begin.solve_id = solve_id;
    begin.method = static_cast<uint32_t>(method);
    begin.dangling = options.dangling;
    begin.alpha = options.alpha;
    begin.initial.reserve(owned_[s].size());
    begin.teleport.reserve(owned_[s].size());
    for (NodeId v : owned_[s]) {
      begin.initial.push_back(initial[static_cast<size_t>(v)]);
      begin.teleport.push_back(teleport[static_cast<size_t>(v)]);
    }
    if (needs_metric_[s]) {
      // One O(|V|) broadcast, once per shard ever: the shard
      // builds its transition slice from it and never asks again.
      begin.metric_values = options_.metric_values;
      stats_.metric_values_sent +=
          static_cast<int64_t>(begin.metric_values.size());
    }
    ShardFrame request;
    request.type = FrameType::kSolveBegin;
    request.request_id = next_request_id_++;
    request.payload = EncodeShardSolveBegin(begin);
    D2PR_RETURN_NOT_OK(CallShard(s, request, FrameType::kStatus).status());
    needs_metric_[s] = 0;
  }
  return Status::OK();
}

Status DistributedCoordinator::SweepRound(uint64_t solve_id,
                                          const BlockRound& round,
                                          std::span<const double> current,
                                          std::span<double> next) {
  ShardSweepRequest sweep;
  sweep.solve_id = solve_id;
  sweep.sweep = static_cast<uint32_t>(round.iteration);
  sweep.dangling_mass = round.dangling_mass;
  sweep.has_rescale = round.prev_norm > 0.0;
  sweep.rescale = round.prev_norm > 0.0 ? 1.0 / round.prev_norm : 1.0;

  // Shards are driven sequentially — the bits cannot tell (disjoint
  // writes, frozen reads).
  for (size_t s = 0; s < channels_.size(); ++s) {
    // Gather the boundary values straight into the shard's reused
    // request bytes.
    ShardFrame& request = sweep_requests_[s];
    request.type = FrameType::kSweepRequest;
    request.request_id = next_request_id_++;
    EncodeShardSweepRequest(sweep, current, boundary_[s], request.payload);
    stats_.boundary_values += static_cast<int64_t>(boundary_[s].size());

    Result<ShardFrame> reply = CallShard(s, request, FrameType::kSweepResponse);
    if (!reply.ok()) return reply.status();
    ShardSweepResponse response;
    WireScores owned;
    if (Status decoded =
            DecodeShardSweepResponse(reply->payload, &response, &owned);
        !decoded.ok()) {
      return Status::Unavailable(StrCat("shard ", s,
                                        " sent a malformed sweep response: ",
                                        decoded.ToString()));
    }
    if (response.solve_id != solve_id || response.sweep != sweep.sweep ||
        owned.size() != owned_[s].size()) {
      return Status::Unavailable(
          StrCat("shard ", s, " answered the wrong sweep (solve ",
                 response.solve_id, ", sweep ", response.sweep, ", ",
                 owned.size(), " values)"));
    }
    // Scatter straight out of the reply bytes into the next iterate.
    const std::vector<NodeId>& nodes = owned_[s];
    for (size_t k = 0; k < nodes.size(); ++k) {
      next[static_cast<size_t>(nodes[k])] = owned[k];
    }
    stats_.owned_values += static_cast<int64_t>(owned.size());
  }
  ++stats_.sweeps;
  return Status::OK();
}

Result<PagerankResult> DistributedCoordinator::Solve(
    SolverMethod method, std::span<const double> teleport,
    const PagerankOptions& options) {
  if (!handshaken_) {
    return Status::FailedPrecondition("Solve before a successful Handshake");
  }
  if (method != SolverMethod::kPower &&
      method != SolverMethod::kGaussSeidel) {
    return Status::InvalidArgument(
        "distributed block solve supports kPower and kGaussSeidel only");
  }
  D2PR_RETURN_NOT_OK(ValidatePagerankOptions(options));
  D2PR_RETURN_NOT_OK(ValidateTeleportVector(teleport, options_.num_nodes));
  const bool gauss_seidel = method == SolverMethod::kGaussSeidel;
  if (gauss_seidel) {
    D2PR_RETURN_NOT_OK(ValidateBlockGaussSeidelPolicy(options.dangling));
  }
  const int64_t t0 = NowMs();

  // The first round ships the per-solve constants, the initial iterate
  // among them, down to every shard before its sweep. Once every shard
  // has begun, a failed round still ends the solve on every shard.
  uint64_t solve_id = 0;
  bool begun = false;
  const auto round = [&](const BlockRound& r,
                         std::span<const double> current,
                         std::span<double> next) -> Status {
    if (r.iteration == 1) {
      solve_id = next_solve_id_++;
      D2PR_RETURN_NOT_OK(
          BeginSolve(solve_id, method, options, current, teleport));
      begun = true;
    }
    return SweepRound(solve_id, r, current, next);
  };
  Result<PagerankResult> result =
      RunBlockIteration(gauss_seidel, dangling_, teleport, options, round);
  if (begun) EndSolve(solve_id);
  stats_.elapsed_ms += NowMs() - t0;
  return result;
}

}  // namespace d2pr
