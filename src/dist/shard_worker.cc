#include "dist/shard_worker.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "api/rank_request.h"
#include "common/string_util.h"
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

/// Writes a kStatus reply carrying `status` into `reply`.
void StatusReply(uint64_t request_id, const Status& status,
                 ShardFrame* reply) {
  reply->type = FrameType::kStatus;
  reply->request_id = request_id;
  reply->payload = EncodeStatusPayload(status);
}

/// The worker's index space: row k is owned position k, and every in-arc
/// source is a slot of the [owned | boundary] scratch, so one array holds
/// the live owned prefix and the frozen boundary tail.
struct SlotIndex {
  const uint32_t* src_slot;
  const double* in_weights;
  const uint8_t* owned_dangling;

  size_t dst(size_t k) const { return k; }
  const uint32_t* sources() const { return src_slot; }
  double weight(size_t idx) const { return in_weights[idx]; }
  bool dangling(size_t k) const { return owned_dangling[k] != 0; }
};

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
      src_slot_[idx] = static_cast<uint32_t>(it - shard.owned.begin());
    } else {
      const auto it = std::lower_bound(boundary.begin(), boundary.end(), src);
      src_slot_[idx] = static_cast<uint32_t>(
          shard.owned.size() + static_cast<size_t>(it - boundary.begin()));
    }
  }
}

Status ShardWorker::Handle(const ShardFrame& request, uint64_t session_id,
                           ShardFrame* reply) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (request.type) {
    case FrameType::kShardHandshake:
      HandleHandshake(request, session_id, reply);
      return Status::OK();
    case FrameType::kSolveBegin:
      HandleSolveBegin(request, session_id, reply);
      return Status::OK();
    case FrameType::kSweepRequest:
      HandleSweep(request, session_id, reply);
      return Status::OK();
    case FrameType::kSolveEnd:
      HandleSolveEnd(request, session_id, reply);
      return Status::OK();
    default:
      // Not part of the shard vocabulary at all — the stream is confused
      // about who it is talking to; the connection must close.
      return Status::InvalidArgument(
          StrCat("shard worker received frame type ",
                 static_cast<int>(request.type)));
  }
}

void ShardWorker::HandleHandshake(const ShardFrame& request,
                                  uint64_t session_id, ShardFrame* reply) {
  Result<ShardHandshake> decoded = DecodeShardHandshake(request.payload);
  if (!decoded.ok()) {
    return StatusReply(request.request_id, decoded.status(), reply);
  }
  const ShardHandshake& h = *decoded;

  // Distinct rejection codes, checked most-specific first (see header).
  const ShardCutMetadata& meta = cut_.meta;
  if (h.shard_id != meta.shard_id) {
    return StatusReply(
        request.request_id,
        Status::NotFound(StrCat("this worker hosts shard ", meta.shard_id,
                                ", not shard ", h.shard_id)), reply);
  }
  if (h.num_shards != meta.num_shards) {
    return StatusReply(
        request.request_id,
        Status::OutOfRange(StrCat("worker partitioned for ", meta.num_shards,
                                  " shards, handshake declares ",
                                  h.num_shards)), reply);
  }
  if (h.scheme != meta.scheme) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(StrCat(
                           "worker partitioned with scheme ",
                           PartitionSchemeName(meta.scheme),
                           ", handshake declares ",
                           PartitionSchemeName(h.scheme))), reply);
  }
  if (h.graph_fingerprint != meta.graph_fingerprint) {
    return StatusReply(
        request.request_id,
        Status::FailedPrecondition(StrCat(
            "graph fingerprint mismatch: worker holds ",
            meta.graph_fingerprint,
            ", handshake declares ", h.graph_fingerprint)), reply);
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
            ", metric=", static_cast<int>(h.metric), ")")), reply);
  }
  if (claimed_by_ != 0 && claimed_by_ != session_id) {
    return StatusReply(
        request.request_id,
        Status::AlreadyExists(StrCat("shard ", meta.shard_id,
                                     " already claimed by a live session")),
        reply);
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

  reply->type = FrameType::kShardHandshakeAck;
  reply->request_id = request.request_id;
  reply->payload = EncodeShardHandshakeAck(ack);
}

void ShardWorker::HandleSolveBegin(const ShardFrame& request,
                                   uint64_t session_id, ShardFrame* reply) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "solve begin from a session that never "
                           "completed a handshake"), reply);
  }
  Result<ShardSolveBegin> decoded = DecodeShardSolveBegin(request.payload);
  if (!decoded.ok()) {
    return StatusReply(request.request_id, decoded.status(), reply);
  }
  ShardSolveBegin begin = std::move(*decoded);

  const size_t num_owned = cut_.shard.owned.size();
  if (begin.initial.size() != num_owned) {
    return StatusReply(
        request.request_id,
        Status::InvalidArgument(StrCat("solve begin carries ",
                                       begin.initial.size(),
                                       " owned values, shard owns ",
                                       num_owned, " nodes")), reply);
  }
  if (begin.method == static_cast<uint32_t>(SolverMethod::kGaussSeidel)) {
    if (Status s = ValidateBlockGaussSeidelPolicy(begin.dangling); !s.ok()) {
      return StatusReply(request.request_id, s, reply);
    }
  }

  if (!slice_ready_) {
    // First solve: build the shard's factors from the cut plus the
    // broadcast metric vector the ack asked for. Wrong-sized or
    // non-finite vectors reject from BuildShardSliceFromCut with its own
    // message, leaving the worker unbuilt for a well-formed retry.
    if (begin.metric_values.empty()) {
      return StatusReply(
          request.request_id,
          Status::FailedPrecondition(
              "worker has no transition slice yet; solve begin must carry "
              "the global metric vector the handshake ack requested "
              "(needs_metric_values)"), reply);
    }
    Result<TransitionFactors> factors =
        BuildShardSliceFromCut(cut_, begin.metric_values, config_);
    if (!factors.ok()) {
      return StatusReply(request.request_id, factors.status(), reply);
    }
    factors_ = std::move(*factors);
    // The factors are built: drop the ghost rows, the forward slice and
    // every weight the sweeps never read (the in-arc weights stay for
    // the beta blend).
    Release(cut_.shard.out_offsets);
    Release(cut_.shard.out_targets);
    Release(cut_.shard.out_arc_begin);
    Release(cut_.ghost_offsets);
    Release(cut_.ghost_targets);
    Release(cut_.out_weights);
    if (!factors_.has_blend()) Release(cut_.in_weights);
    Release(cut_.ghost_weights);
    slice_ready_ = true;
  }

  solve_active_ = true;
  solve_id_ = begin.solve_id;
  params_.gauss_seidel =
      begin.method == static_cast<uint32_t>(SolverMethod::kGaussSeidel);
  params_.dangling = begin.dangling;
  params_.alpha = begin.alpha;
  teleport_ = std::move(begin.teleport);
  vals_.assign(num_owned + cut_.boundary_sources.size(), 0.0);
  std::copy(begin.initial.begin(), begin.initial.end(), vals_.begin());
  next_.assign(params_.gauss_seidel ? 0 : vals_.size(), 0.0);
  last_sweep_ = 0;

  return StatusReply(request.request_id, Status::OK(), reply);
}

void ShardWorker::HandleSweep(const ShardFrame& request,
                              uint64_t session_id, ShardFrame* reply) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "sweep from a session that never completed a "
                           "handshake"), reply);
  }
  ShardSweepRequest sweep;
  WireScores boundary;
  if (Status decoded = DecodeShardSweepRequest(request.payload, &sweep,
                                               &boundary);
      !decoded.ok()) {
    return StatusReply(request.request_id, decoded, reply);
  }

  if (!solve_active_ || sweep.solve_id != solve_id_) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(StrCat(
                           "sweep for unknown solve ", sweep.solve_id)), reply);
  }
  const size_t num_owned = cut_.shard.owned.size();
  if (boundary.size() != cut_.boundary_sources.size()) {
    return StatusReply(
        request.request_id,
        Status::InvalidArgument(StrCat(
            "sweep carries ", boundary.size(), " boundary values, ",
            "shard pulls ", cut_.boundary_sources.size(), " sources")), reply);
  }
  // A request repeating the sweep that last executed is an idempotent
  // retry (the coordinator, or a duplicating transport, re-sent it). It
  // is answered again from the retained slice, which nothing has touched
  // since — re-executing would double-advance the iterate.
  const bool retry = last_sweep_ != 0 && sweep.sweep == last_sweep_;
  if (!retry) {
    if (sweep.sweep != last_sweep_ + 1) {
      return StatusReply(
          request.request_id,
          Status::FailedPrecondition(StrCat("sweep ", sweep.sweep,
                                            " out of order (last executed ",
                                            last_sweep_, ")")), reply);
    }
    boundary.CopyTo(std::span<double>(vals_).subspan(num_owned));
    if (sweep.has_rescale) {
      // Replay the coordinator's NormalizeL1 on the retained slice:
      // Scale(1.0/norm) multiplies every element by the same scalar, so
      // multiplying the slice is bitwise the slice of the multiplied
      // vector.
      for (size_t k = 0; k < num_owned; ++k) vals_[k] *= sweep.rescale;
    }
    params_.dangling_mass = sweep.dangling_mass;
    params_.teleport = teleport_;
    // Gauss-Seidel sweeps the owned prefix in place: interior sources
    // read live (possibly already-updated) slots, boundary slots hold
    // the coordinator's frozen exchange copy. Power writes next_ and
    // swaps it in once every row has read the old slice; the old buffer's
    // tail takes the next request's boundary list.
    const bool gauss_seidel = params_.gauss_seidel;
    if (!gauss_seidel) products_.Compute(factors_, vals_);
    BlockSweep(factors_, cut_.shard.in_offsets,
               SlotIndex{src_slot_.data(), cut_.in_weights.data(),
                         owned_dangling_.data()},
               params_, products_, vals_, gauss_seidel ? vals_ : next_,
               &partials_);
    if (!gauss_seidel) vals_.swap(next_);
    last_sweep_ = sweep.sweep;
    ++sweeps_executed_;
  }

  ShardSweepResponse response;
  response.solve_id = solve_id_;
  response.sweep = last_sweep_;
  response.dangling_partial = partials_.dangling;
  response.residual_partial = partials_.residual;
  reply->type = FrameType::kSweepResponse;
  reply->request_id = request.request_id;
  EncodeShardSweepResponse(
      response, std::span<const double>(vals_.data(), num_owned),
      reply->payload);
}

void ShardWorker::HandleSolveEnd(const ShardFrame& request,
                                 uint64_t session_id, ShardFrame* reply) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "solve end from a session that never completed "
                           "a handshake"), reply);
  }
  Result<ShardSolveEnd> decoded = DecodeShardSolveEnd(request.payload);
  if (!decoded.ok()) {
    return StatusReply(request.request_id, decoded.status(), reply);
  }
  if (solve_active_ && decoded->solve_id == solve_id_) {
    solve_active_ = false;
    teleport_.clear();
    vals_.clear();
    next_.clear();
  }
  // Ending an unknown (or already-ended) solve is OK — the coordinator
  // may retry a lost end frame.
  return StatusReply(request.request_id, Status::OK(), reply);
}

void ShardWorker::CloseSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (claimed_by_ != session_id) return;
  claimed_by_ = 0;
  solve_active_ = false;
  teleport_.clear();
  vals_.clear();
  next_.clear();
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
