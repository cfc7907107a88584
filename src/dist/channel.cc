#include "dist/channel.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "common/binary_io.h"
#include "common/string_util.h"
#include "dist/shard_worker.h"

namespace d2pr {

namespace {

/// Session ids for in-process channels: globally unique, never 0 (0 is
/// the worker's "unclaimed" sentinel).
std::atomic<uint64_t> g_next_session_id{1};

}  // namespace

Result<std::unique_ptr<SocketShardChannel>> SocketShardChannel::Connect(
    const std::string& host, uint16_t port) {
  Socket socket;
  D2PR_ASSIGN_OR_RETURN(socket, Socket::Connect(host, port));
  return std::unique_ptr<SocketShardChannel>(
      new SocketShardChannel(std::move(socket)));
}

Result<ShardFrame> SocketShardChannel::Call(const ShardFrame& request,
                                            int64_t deadline_ms) {
  // A negative deadline is a budget the caller already spent. Fail before
  // touching the wire: SetRecvTimeout treats non-positive values as "no
  // timeout", so sending anyway would trade an expired budget for an
  // unbounded wait.
  if (deadline_ms < 0) {
    return Status::DeadlineExceeded(
        StrCat("call budget of ", deadline_ms, " ms already expired"));
  }
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  // Arms SO_RCVTIMEO with the budget REMAINING before a receive. The
  // deadline bounds the whole call, not each recv — the stale-reply
  // drain loop below reads one frame per duplicate, and arming the full
  // deadline per frame would let a storm of duplicates extend one call
  // indefinitely (each stale frame granting a fresh budget).
  auto arm_remaining = [&]() -> Status {
    int64_t remaining = 0;  // 0 = no deadline
    if (deadline_ms > 0) {
      const int64_t elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      remaining = deadline_ms - elapsed;
      if (remaining <= 0) {
        return Status::DeadlineExceeded(
            StrCat("call budget of ", deadline_ms, " ms exhausted after ",
                   elapsed, " ms"));
      }
    }
    if (remaining != armed_deadline_ms_) {
      Status armed = socket_.SetRecvTimeout(remaining);
      if (!armed.ok()) return armed;
      armed_deadline_ms_ = remaining;
    }
    return Status::OK();
  };
  const FrameHeaderBytes header = EncodeFrameHeader(
      request.type, request.request_id, request.payload.size());
  D2PR_RETURN_NOT_OK(socket_.SendAll(header, request.payload));

  // Read frames until one matches the request id. Older ids are stale
  // replies of retried calls — drained, not errors; anything else means
  // the stream lost sync.
  for (;;) {
    D2PR_RETURN_NOT_OK(arm_remaining());
    uint8_t header_bytes[kFrameHeaderBytes];
    D2PR_RETURN_NOT_OK(socket_.RecvExact(header_bytes, sizeof(header_bytes)));
    FrameHeader header;
    D2PR_ASSIGN_OR_RETURN(
        header, DecodeFrameHeader(std::span<const uint8_t>(
                    header_bytes, sizeof(header_bytes))));
    ShardFrame reply;
    reply.type = header.type;
    reply.request_id = header.request_id;
    reply.payload.resize(header.payload_len);
    if (header.payload_len > 0) {
      D2PR_RETURN_NOT_OK(arm_remaining());
      D2PR_RETURN_NOT_OK(
          socket_.RecvExact(reply.payload.data(), reply.payload.size()));
    }
    if (reply.request_id == request.request_id) return reply;
    if (reply.request_id < request.request_id) continue;  // stale duplicate
    return Status::Internal(
        StrCat("shard replied to future request ", reply.request_id,
               " while waiting for ", request.request_id));
  }
}

InProcessShardChannel::InProcessShardChannel(ShardWorker& worker)
    : worker_(worker),
      session_id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)) {}

Result<ShardFrame> InProcessShardChannel::Call(const ShardFrame& request,
                                               int64_t deadline_ms) {
  (void)deadline_ms;  // nothing to wait on in-process
  ShardFrame reply;
  D2PR_RETURN_NOT_OK(worker_.Handle(request, session_id_, &reply));
  return reply;
}

}  // namespace d2pr
