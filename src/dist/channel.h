// ShardChannel: the transport seam between the DistributedCoordinator
// and one shard worker.
//
// The coordinator speaks strictly call/response (net/shard_wire.h), so
// the seam is one blocking method: send a frame, return the reply. Two
// implementations:
//
//   * SocketShardChannel — a real TCP connection to a ShardServer
//     (dist/shard_server.h), with the per-call deadline armed as a
//     receive timeout (Socket::SetRecvTimeout) re-armed before every
//     receive with the budget REMAINING, so the deadline bounds the
//     whole call. Stale replies — a duplicate or late response whose
//     request id predates the current call — are drained silently,
//     which is what makes coordinator-side retries of idempotent sweep
//     requests safe over a real stream; each stale frame spends the
//     call's one budget rather than granting a fresh one.
//   * InProcessShardChannel — a direct call into a ShardWorker, no
//     sockets and no threads. The distributed test suites run whole
//     shard fleets this way, and a FaultyChannel (tests/dist_test_util.h)
//     wraps it to inject drops, duplicates, truncation, and shard death.
//
// Channel errors use the code vocabulary the coordinator's fault policy
// keys on: DeadlineExceeded is retryable (the request MAY have been
// processed — which is why every shard request is idempotent), IoError /
// Unavailable mean the shard is gone, and anything else is a protocol
// violation that fails the solve.

#ifndef D2PR_DIST_CHANNEL_H_
#define D2PR_DIST_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "net/wire.h"

namespace d2pr {

class ShardWorker;

/// \brief One decoded frame: type + correlation id + raw payload bytes.
/// Payload stays undecoded at this layer so a channel can carry any v2
/// frame (and tests can corrupt bytes below the codec).
struct ShardFrame {
  FrameType type = FrameType::kStatus;
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;
};

/// \brief Blocking call/response transport to one shard worker.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Sends `request` and blocks for the reply carrying the same request
  /// id. `deadline_ms` > 0 bounds the WHOLE call — send plus every
  /// receive, including stale-reply drains — with DeadlineExceeded on
  /// expiry; 0 means no deadline (wait forever); a negative value is an
  /// already-spent budget and returns DeadlineExceeded without sending.
  /// Replies with older request ids are drained and discarded, not
  /// errors.
  virtual Result<ShardFrame> Call(const ShardFrame& request,
                                  int64_t deadline_ms) = 0;
};

/// \brief Channel over a real TCP connection to a ShardServer.
class SocketShardChannel : public ShardChannel {
 public:
  /// Connects to `host`:`port` (numeric IPv4).
  static Result<std::unique_ptr<SocketShardChannel>> Connect(
      const std::string& host, uint16_t port);

  Result<ShardFrame> Call(const ShardFrame& request,
                          int64_t deadline_ms) override;

 private:
  explicit SocketShardChannel(Socket socket) : socket_(std::move(socket)) {}

  Socket socket_;
  /// Last SO_RCVTIMEO value armed on socket_, to skip the setsockopt
  /// when the wanted timeout (remaining budget, or 0 for none) is
  /// already in place. -1 = never armed.
  int64_t armed_deadline_ms_ = -1;
};

/// \brief Channel calling a ShardWorker directly — the fake-transport
/// fleet of the distributed test suites. Each channel is one logical
/// connection (its own session id), so two InProcessShardChannels to the
/// same worker exercise the duplicate-claim rejection exactly as two
/// sockets would. `worker` must outlive the channel.
class InProcessShardChannel : public ShardChannel {
 public:
  explicit InProcessShardChannel(ShardWorker& worker);

  Result<ShardFrame> Call(const ShardFrame& request,
                          int64_t deadline_ms) override;

  uint64_t session_id() const { return session_id_; }

 private:
  ShardWorker& worker_;
  uint64_t session_id_;
};

}  // namespace d2pr

#endif  // D2PR_DIST_CHANNEL_H_
