// Thin RAII wrappers over blocking POSIX stream sockets — the entire OS
// surface of the network front door, so everything above this file
// (framing, server, client) is plain byte-vector logic.
//
// Scope is deliberately small: IPv4, blocking I/O (plus one non-blocking
// send, TrySend), loopback-oriented defaults. The server's concurrency
// comes from one reader/writer thread pair per connection
// (net/server.h), not from non-blocking multiplexing;
// at the fleet sizes the bench drives (dozens of connections, thousands
// of requests each) thread-per-connection measures within noise of an
// event loop and keeps every code path synchronous and testable.
//
// Shutdown discipline: a blocking accept or recv is unblocked by
// shutdown(fd, SHUT_RDWR) from another thread, NOT by close — closing a
// descriptor another thread is blocked on is a use-after-free of the fd
// number. Socket::ShutdownBoth / ListenSocket::Shutdown exist for exactly
// that; the owning wrapper closes the descriptor at destruction.

#ifndef D2PR_NET_SOCKET_H_
#define D2PR_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"

namespace d2pr {

/// \brief One connected stream socket (client or accepted server side).
class Socket {
 public:
  /// Invalid socket; every operation on it fails with FailedPrecondition.
  Socket() = default;
  /// Adopts an already-connected descriptor (the accept path).
  explicit Socket(int fd) : fd_(fd) {}

  /// Blocking connect to `host`:`port` (numeric IPv4, e.g. "127.0.0.1").
  static Result<Socket> Connect(const std::string& host, uint16_t port);

  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all `len` bytes: the one-part form of the gathered write
  /// below.
  Status SendAll(const void* data, size_t len);

  /// Writes `head` then `body` as one gathered stream write (sendmsg of
  /// two iovecs, looping over partial sends; SIGPIPE suppressed) — how a
  /// frame's header and payload go out without first being copied into
  /// one buffer. Empty parts are skipped. IoError when the peer is gone.
  Status SendAll(std::span<const uint8_t> head, std::span<const uint8_t> body);

  /// Writes as much of `data` as the socket takes without blocking
  /// (sendmsg with MSG_DONTWAIT; SIGPIPE suppressed) and returns the
  /// bytes written: all of them, a prefix, or 0 when the send buffer is
  /// full. IoError when the peer is gone. How the server sends a reply on
  /// the thread that completes it, which must never wait on a slow peer.
  Result<size_t> TrySend(std::span<const uint8_t> data);

  /// Reads exactly `len` bytes. IoError on failure; when `clean_eof` is
  /// non-null it is set to true iff the peer closed before the FIRST
  /// byte — the one EOF that is a normal end of stream at a frame
  /// boundary rather than a truncation. When a receive timeout is set
  /// (SetRecvTimeout) and it expires, the status is DeadlineExceeded —
  /// distinguishable from a dead peer, so callers can retry an idempotent
  /// request instead of abandoning the connection.
  Status RecvExact(void* data, size_t len, bool* clean_eof = nullptr);

  /// Arms SO_RCVTIMEO: a RecvExact blocked longer than `ms` milliseconds
  /// returns DeadlineExceeded. 0 disables the timeout (blocking forever,
  /// the default). The distributed coordinator sets its per-sweep
  /// deadline this way.
  Status SetRecvTimeout(int64_t ms);

  /// Unblocks any thread inside SendAll/RecvExact on this socket.
  /// Idempotent; the descriptor stays owned until destruction.
  void ShutdownBoth();

  /// Unblocks readers only: subsequent/blocked RecvExact calls see EOF
  /// while queued writes still flush. The server's shutdown sequence uses
  /// this to stop new requests while in-flight responses drain.
  void ShutdownRead();

 private:
  /// The one send loop: `head` then `body` as gathered sendmsg calls with
  /// `flags`, over partial sends and EINTR, until everything is written or
  /// the socket would block. Returns the bytes written.
  Result<size_t> SendParts(std::span<const uint8_t> head,
                           std::span<const uint8_t> body, int flags);

  int fd_ = -1;
};

/// \brief A listening IPv4 socket bound to loopback.
class ListenSocket {
 public:
  /// Invalid listener (the not-yet-started server state).
  ListenSocket() = default;

  /// Binds 127.0.0.1:`port` (0 = kernel-chosen ephemeral port, reported
  /// by port()) with SO_REUSEADDR and starts listening.
  static Result<ListenSocket> Listen(uint16_t port);

  ~ListenSocket();
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  /// The bound port (the kernel's choice when Listen was given 0).
  uint16_t port() const { return port_; }

  /// Blocks for the next connection. IoError once Shutdown has been
  /// called (the accept-loop exit signal).
  Result<Socket> Accept();

  /// Unblocks a blocked Accept. Idempotent.
  void Shutdown();

 private:
  ListenSocket(int fd, uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace d2pr

#endif  // D2PR_NET_SOCKET_H_
