#include "dist/shard_worker.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "api/rank_request.h"
#include "common/string_util.h"
#include "core/block_solver.h"
#include "core/transition_slices.h"
#include "net/shard_wire.h"

namespace d2pr {

namespace {

/// Bitwise double comparison (NaN-safe: a key is built from finite
/// request fields, but memcmp semantics keep the contract exact).
bool SameBits(double a, double b) {
  uint64_t ab = 0;
  uint64_t bb = 0;
  static_assert(sizeof(ab) == sizeof(a));
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

template <typename T>
int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.size() * sizeof(T));
}

/// Frees a vector's storage (clear() keeps the capacity).
template <typename T>
void Release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

ShardWorker::ShardWorker(ShardCut cut, const TransitionConfig& config,
                         ResolvedKey key)
    : cut_(std::move(cut)), config_(config), key_(key) {}

Result<std::unique_ptr<ShardWorker>> ShardWorker::Create(
    ShardCut cut, const TransitionConfig& config) {
  // Fail a bad config at create time, not at the first solve.
  D2PR_RETURN_NOT_OK(ValidateTransitionConfig(cut.meta.weighted, config));

  // Normalize the transition key exactly as D2prEngine does before cache
  // lookups, so the coordinator's handshake key (normalized the same
  // way, from the graph the cut came from) compares bitwise.
  ResolvedKey key;
  key.p = config.p;
  key.beta = cut.meta.weighted ? config.beta : 0.0;
  key.metric = ResolveMetric(cut.meta.weighted, config.metric);

  const int64_t input_bytes = cut.payload_bytes();
  auto worker = std::unique_ptr<ShardWorker>(
      new ShardWorker(std::move(cut), config, key));
  worker->build_input_bytes_ = input_bytes;
  worker->InitDerivedIndexes();
  return worker;
}

Result<std::unique_ptr<ShardWorker>> ShardWorker::CreateFromCutFile(
    const std::string& path, const TransitionConfig& config) {
  Result<ShardCut> loaded = LoadShardCut(path);
  if (!loaded.ok()) return loaded.status();
  return Create(std::move(loaded).value(), config);
}

void ShardWorker::InitDerivedIndexes() {
  const PartitionShard& shard = cut_.shard;
  const std::vector<NodeId>& boundary = cut_.boundary_sources;
  owned_dangling_.assign(shard.owned.size(), 0);
  for (NodeId v : shard.dangling_owned) {
    const auto it =
        std::lower_bound(shard.owned.begin(), shard.owned.end(), v);
    owned_dangling_[static_cast<size_t>(it - shard.owned.begin())] = 1;
  }

  // Slot of each in-CSR position in the [owned | boundary] scratch.
  src_slot_.resize(shard.in_sources.size());
  for (size_t idx = 0; idx < shard.in_sources.size(); ++idx) {
    const NodeId src = shard.in_sources[idx];
    if (shard.in_interior[idx]) {
      const auto it =
          std::lower_bound(shard.owned.begin(), shard.owned.end(), src);
      src_slot_[idx] = static_cast<size_t>(it - shard.owned.begin());
    } else {
      const auto it = std::lower_bound(boundary.begin(), boundary.end(), src);
      src_slot_[idx] = shard.owned.size() +
                       static_cast<size_t>(it - boundary.begin());
    }
  }
}

ShardFrame ShardWorker::StatusReply(uint64_t request_id,
                                    const Status& status) const {
  ShardFrame reply;
  reply.type = FrameType::kStatus;
  reply.request_id = request_id;
  reply.payload = EncodeStatusPayload(status);
  return reply;
}

Result<ShardFrame> ShardWorker::Handle(const ShardFrame& request,
                                       uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (request.type) {
    case FrameType::kShardHandshake:
      return HandleHandshake(request, session_id);
    case FrameType::kSolveBegin:
      return HandleSolveBegin(request, session_id);
    case FrameType::kSweepRequest:
      return HandleSweep(request, session_id);
    case FrameType::kSolveEnd:
      return HandleSolveEnd(request, session_id);
    default:
      // Not part of the shard vocabulary at all — the stream is confused
      // about who it is talking to; the connection must close.
      return Status::InvalidArgument(
          StrCat("shard worker received frame type ",
                 static_cast<int>(request.type)));
  }
}

ShardFrame ShardWorker::HandleHandshake(const ShardFrame& request,
                                        uint64_t session_id) {
  Result<ShardHandshake> decoded = DecodeShardHandshake(request.payload);
  if (!decoded.ok()) return StatusReply(request.request_id, decoded.status());
  const ShardHandshake& h = *decoded;

  // Distinct rejection codes, checked most-specific first (see header).
  const ShardCutMetadata& meta = cut_.meta;
  if (h.shard_id != meta.shard_id) {
    return StatusReply(
        request.request_id,
        Status::NotFound(StrCat("this worker hosts shard ", meta.shard_id,
                                ", not shard ", h.shard_id)));
  }
  if (h.num_shards != meta.num_shards) {
    return StatusReply(
        request.request_id,
        Status::OutOfRange(StrCat("worker partitioned for ", meta.num_shards,
                                  " shards, handshake declares ",
                                  h.num_shards)));
  }
  if (h.scheme != meta.scheme) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(StrCat(
                           "worker partitioned with scheme ",
                           PartitionSchemeName(meta.scheme),
                           ", handshake declares ",
                           PartitionSchemeName(h.scheme))));
  }
  if (h.slice_build != SliceBuild::kSubgraph) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "shard workers build slices shard-locally "
                           "(SliceBuild::kSubgraph only)"));
  }
  if (h.graph_fingerprint != meta.graph_fingerprint) {
    return StatusReply(
        request.request_id,
        Status::FailedPrecondition(StrCat(
            "graph fingerprint mismatch: worker holds ",
            meta.graph_fingerprint,
            ", handshake declares ", h.graph_fingerprint)));
  }
  if (!SameBits(h.p, key_.p) || !SameBits(h.beta, key_.beta) ||
      h.metric != key_.metric) {
    // The comparison is bitwise, so the report must be too: default
    // stream precision prints 0.1 and 0.1+1ulp as the same "0.1",
    // which made real mismatches read as absurd self-contradictions.
    return StatusReply(
        request.request_id,
        Status::InvalidArgument(StrCat(
            "transition key mismatch: worker resolved (p=",
            FormatExactDouble(key_.p), ", beta=", FormatExactDouble(key_.beta),
            ", metric=", static_cast<int>(key_.metric),
            "), handshake declares (p=", FormatExactDouble(h.p),
            ", beta=", FormatExactDouble(h.beta),
            ", metric=", static_cast<int>(h.metric), ")")));
  }
  if (claimed_by_ != 0 && claimed_by_ != session_id) {
    return StatusReply(
        request.request_id,
        Status::AlreadyExists(StrCat("shard ", meta.shard_id,
                                     " already claimed by a live session")));
  }
  claimed_by_ = session_id;

  const PartitionShard& shard = cut_.shard;
  ShardHandshakeAck ack;
  ack.num_nodes = static_cast<uint64_t>(meta.num_nodes);
  ack.num_arcs = static_cast<uint64_t>(meta.num_arcs);
  ack.num_owned = shard.owned.size();
  ack.boundary_in_arcs = static_cast<uint64_t>(shard.boundary_in_arcs);
  ack.dangling_owned = shard.dangling_owned;
  ack.boundary_sources = cut_.boundary_sources;
  // The worker asks for the metric vector until its first slice build.
  ack.needs_metric_values = !slice_ready_;

  ShardFrame reply;
  reply.type = FrameType::kShardHandshakeAck;
  reply.request_id = request.request_id;
  reply.payload = EncodeShardHandshakeAck(ack);
  return reply;
}

ShardFrame ShardWorker::HandleSolveBegin(const ShardFrame& request,
                                         uint64_t session_id) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "solve begin from a session that never "
                           "completed a handshake"));
  }
  Result<ShardSolveBegin> decoded = DecodeShardSolveBegin(request.payload);
  if (!decoded.ok()) return StatusReply(request.request_id, decoded.status());
  ShardSolveBegin begin = std::move(*decoded);

  const size_t num_owned = cut_.shard.owned.size();
  if (begin.initial.size() != num_owned) {
    return StatusReply(
        request.request_id,
        Status::InvalidArgument(StrCat("solve begin carries ",
                                       begin.initial.size(),
                                       " owned values, shard owns ",
                                       num_owned, " nodes")));
  }
  if (begin.method == static_cast<uint32_t>(SolverMethod::kGaussSeidel)) {
    if (Status s = ValidateBlockGaussSeidelPolicy(begin.dangling); !s.ok()) {
      return StatusReply(request.request_id, s);
    }
  }

  if (!slice_ready_) {
    // First solve: build the slice from the cut plus the broadcast
    // metric vector the ack asked for. Wrong-sized or non-finite vectors
    // reject from BuildShardSliceFromCut with its own message, leaving
    // the worker unbuilt for a well-formed retry.
    if (begin.metric_values.empty()) {
      return StatusReply(
          request.request_id,
          Status::FailedPrecondition(
              "worker has no transition slice yet; solve begin must carry "
              "the global metric vector the handshake ack requested "
              "(needs_metric_values)"));
    }
    Result<std::vector<double>> slice =
        BuildShardSliceFromCut(cut_, begin.metric_values, config_);
    if (!slice.ok()) return StatusReply(request.request_id, slice.status());
    probs_ = std::move(*slice);
    // The slice is built: drop the ghost rows, weights, and the forward
    // slice the sweeps never read.
    Release(cut_.shard.out_offsets);
    Release(cut_.shard.out_targets);
    Release(cut_.shard.out_arc_begin);
    Release(cut_.ghost_offsets);
    Release(cut_.ghost_targets);
    Release(cut_.out_weights);
    Release(cut_.in_weights);
    Release(cut_.ghost_weights);
    slice_ready_ = true;
  }

  solve_active_ = true;
  solve_id_ = begin.solve_id;
  method_ = begin.method;
  dangling_policy_ = begin.dangling;
  alpha_ = begin.alpha;
  teleport_ = std::move(begin.teleport);
  vals_.assign(num_owned + cut_.boundary_sources.size(), 0.0);
  std::copy(begin.initial.begin(), begin.initial.end(), vals_.begin());
  next_.assign(num_owned, 0.0);
  last_sweep_ = 0;
  cached_reply_.clear();

  return StatusReply(request.request_id, Status::OK());
}

ShardFrame ShardWorker::HandleSweep(const ShardFrame& request,
                                    uint64_t session_id) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "sweep from a session that never completed a "
                           "handshake"));
  }
  Result<ShardSweepRequest> decoded = DecodeShardSweepRequest(request.payload);
  if (!decoded.ok()) return StatusReply(request.request_id, decoded.status());
  const ShardSweepRequest& sweep = *decoded;

  if (!solve_active_ || sweep.solve_id != solve_id_) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(StrCat(
                           "sweep for unknown solve ", sweep.solve_id)));
  }
  if (sweep.boundary.size() != cut_.boundary_sources.size()) {
    return StatusReply(
        request.request_id,
        Status::InvalidArgument(StrCat(
            "sweep carries ", sweep.boundary.size(), " boundary values, ",
            "shard pulls ", cut_.boundary_sources.size(), " sources")));
  }
  if (sweep.sweep == last_sweep_ && !cached_reply_.empty()) {
    // Idempotent retry: the coordinator (or a duplicating transport)
    // re-sent a sweep that already executed. Resend the cached reply —
    // re-executing would double-advance the iterate.
    ShardFrame reply;
    reply.type = FrameType::kSweepResponse;
    reply.request_id = request.request_id;
    reply.payload = cached_reply_;
    return reply;
  }
  if (sweep.sweep != last_sweep_ + 1) {
    return StatusReply(
        request.request_id,
        Status::FailedPrecondition(StrCat("sweep ", sweep.sweep,
                                          " out of order (last executed ",
                                          last_sweep_, ")")));
  }

  ExecuteSweep(sweep.dangling_mass, sweep.has_rescale, sweep.rescale,
               sweep.boundary);
  last_sweep_ = sweep.sweep;
  ++sweeps_executed_;

  ShardSweepResponse response;
  response.solve_id = solve_id_;
  response.sweep = last_sweep_;
  response.owned.assign(vals_.begin(),
                        vals_.begin() + static_cast<long>(next_.size()));
  // Advisory partials: the shard's own fold grouping (telemetry; the
  // coordinator recomputes the canonical global folds).
  response.dangling_partial = 0.0;
  for (size_t k = 0; k < owned_dangling_.size(); ++k) {
    if (owned_dangling_[k]) response.dangling_partial += vals_[k];
  }
  response.residual_partial = 0.0;
  for (size_t k = 0; k < next_.size(); ++k) {
    response.residual_partial += std::abs(vals_[k] - next_[k]);
  }
  cached_reply_ = EncodeShardSweepResponse(response);

  ShardFrame reply;
  reply.type = FrameType::kSweepResponse;
  reply.request_id = request.request_id;
  reply.payload = cached_reply_;
  return reply;
}

void ShardWorker::ExecuteSweep(double dangling_mass, bool has_rescale,
                               double rescale,
                               const std::vector<double>& boundary) {
  const PartitionShard& shard = cut_.shard;
  const size_t num_owned = shard.owned.size();
  if (has_rescale) {
    // Replay the coordinator's NormalizeL1 on the retained slice:
    // Scale(1.0/norm) multiplies every element by the same scalar, so
    // multiplying the slice is bitwise the slice of the multiplied
    // vector.
    for (size_t k = 0; k < num_owned; ++k) vals_[k] *= rescale;
  }
  std::copy(boundary.begin(), boundary.end(), vals_.begin() + num_owned);

  // `next_` keeps the pre-sweep owned slice afterwards (for the advisory
  // residual partial); during a power sweep it holds the new values.
  const double* slice = probs_.data();
  if (method_ == static_cast<uint32_t>(SolverMethod::kPower)) {
    // Line-for-line the power sweep of SolvePagerankPartitioned's sliced
    // overload, with current[src] read through the slot map.
    for (size_t k = 0; k < num_owned; ++k) {
      double value = 0.0;
      const EdgeIndex begin = shard.in_offsets[k];
      const EdgeIndex end = shard.in_offsets[k + 1];
      for (EdgeIndex idx = begin; idx < end; ++idx) {
        value += vals_[src_slot_[static_cast<size_t>(idx)]] *
                 slice[static_cast<size_t>(idx)];
      }
      switch (dangling_policy_) {
        case DanglingPolicy::kTeleport:
          if (dangling_mass > 0.0) {
            value += dangling_mass * teleport_[k];
          }
          break;
        case DanglingPolicy::kSelfLoop:
          if (owned_dangling_[k]) {
            value += vals_[k];
          }
          break;
        case DanglingPolicy::kRenormalize:
          break;
      }
      next_[k] = alpha_ * value + (1.0 - alpha_) * teleport_[k];
    }
    // Swap the new slice into the retained prefix; next_ now holds the
    // previous values for the residual partial.
    for (size_t k = 0; k < num_owned; ++k) std::swap(vals_[k], next_[k]);
    return;
  }

  // Block Gauss-Seidel: in-place on the owned prefix — interior sources
  // read live (possibly already-updated) slots, boundary slots hold the
  // coordinator's frozen exchange copy. Same arithmetic as
  // SolveGaussSeidelPartitioned's sliced overload.
  std::copy(vals_.begin(), vals_.begin() + static_cast<long>(num_owned),
            next_.begin());
  for (size_t k = 0; k < num_owned; ++k) {
    double incoming = 0.0;
    const EdgeIndex begin = shard.in_offsets[k];
    const EdgeIndex end = shard.in_offsets[k + 1];
    for (EdgeIndex idx = begin; idx < end; ++idx) {
      incoming += slice[static_cast<size_t>(idx)] *
                  vals_[src_slot_[static_cast<size_t>(idx)]];
    }
    double value = alpha_ * incoming + (1.0 - alpha_) * teleport_[k];
    switch (dangling_policy_) {
      case DanglingPolicy::kTeleport:
        value += alpha_ * dangling_mass * teleport_[k];
        break;
      case DanglingPolicy::kSelfLoop:
        if (owned_dangling_[k]) {
          value /= (1.0 - alpha_);
        }
        break;
      case DanglingPolicy::kRenormalize:
        break;
    }
    vals_[k] = value;
  }
}

ShardFrame ShardWorker::HandleSolveEnd(const ShardFrame& request,
                                       uint64_t session_id) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "solve end from a session that never completed "
                           "a handshake"));
  }
  Result<ShardSolveEnd> decoded = DecodeShardSolveEnd(request.payload);
  if (!decoded.ok()) return StatusReply(request.request_id, decoded.status());
  if (solve_active_ && decoded->solve_id == solve_id_) {
    solve_active_ = false;
    teleport_.clear();
    vals_.clear();
    next_.clear();
    cached_reply_.clear();
  }
  // Ending an unknown (or already-ended) solve is OK — the coordinator
  // may retry a lost end frame.
  return StatusReply(request.request_id, Status::OK());
}

void ShardWorker::CloseSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (claimed_by_ != session_id) return;
  claimed_by_ = 0;
  solve_active_ = false;
  teleport_.clear();
  vals_.clear();
  next_.clear();
  cached_reply_.clear();
}

int64_t ShardWorker::sweeps_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sweeps_executed_;
}

int64_t ShardWorker::resident_graph_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cut_.payload_bytes() + VectorBytes(src_slot_) +
         VectorBytes(owned_dangling_);
}

}  // namespace d2pr
