#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace d2pr {
namespace {

Status Errno(const char* what) {
  return Status::IoError(StrCat(what, ": ", std::strerror(errno)));
}

Status MakeAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument(
        StrCat("not a numeric IPv4 address: '", host, "'"));
  }
  return Status::OK();
}

}  // namespace

Socket::~Socket() {
  if (fd_ >= 0) ::close(fd_);
}

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  D2PR_RETURN_NOT_OK(MakeAddr(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  // Frames are written whole and latency is the benchmark's subject;
  // Nagle coalescing only adds delay to small request frames.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("connect");
  }
  return socket;
}

Status Socket::SendAll(const void* data, size_t len) {
  return SendAll({static_cast<const uint8_t*>(data), len}, {});
}

Status Socket::SendAll(std::span<const uint8_t> head,
                       std::span<const uint8_t> body) {
  D2PR_ASSIGN_OR_RETURN(const size_t sent, SendParts(head, body, 0));
  if (sent < head.size() + body.size()) {
    return Status::IoError("send: would block");  // only with SO_SNDTIMEO
  }
  return Status::OK();
}

Result<size_t> Socket::TrySend(std::span<const uint8_t> data) {
  return SendParts(data, {}, MSG_DONTWAIT);
}

Result<size_t> Socket::SendParts(std::span<const uint8_t> head,
                                 std::span<const uint8_t> body, int flags) {
  if (fd_ < 0) return Status::FailedPrecondition("send on invalid socket");
  iovec parts[2] = {
      {const_cast<uint8_t*>(head.data()), head.size()},
      {const_cast<uint8_t*>(body.data()), body.size()},
  };
  iovec* next = parts;
  size_t count = 2;
  size_t total = 0;
  while (count > 0) {
    if (next->iov_len == 0) {
      ++next;
      --count;
      continue;
    }
    msghdr message{};
    message.msg_iov = next;
    message.msg_iovlen = count;
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a process-killing
    // SIGPIPE.
    const ssize_t sent = ::sendmsg(fd_, &message, flags | MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return total;
      return Errno("send");
    }
    if (sent == 0) return Status::IoError("send: connection closed");
    // Step past what went out: whole parts first, then into a partial one.
    size_t done = static_cast<size_t>(sent);
    total += done;
    while (count > 0 && done >= next->iov_len) {
      done -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<uint8_t*>(next->iov_base) + done;
      next->iov_len -= done;
    }
  }
  return total;
}

Status Socket::RecvExact(void* data, size_t len, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  if (fd_ < 0) return Status::FailedPrecondition("recv on invalid socket");
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expiry (SetRecvTimeout). Bytes already read stay
        // read — the caller decides whether the stream is resumable.
        return Status::DeadlineExceeded(
            StrCat("recv: timed out (", got, " of ", len, " bytes)"));
      }
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0 && clean_eof != nullptr) *clean_eof = true;
      return Status::IoError(
          got == 0 ? "recv: connection closed"
                   : StrCat("recv: connection closed mid-read (", got, " of ",
                            len, " bytes)"));
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Socket::SetRecvTimeout(int64_t ms) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("setsockopt on invalid socket");
  }
  timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

ListenSocket::~ListenSocket() {
  if (fd_ >= 0) ::close(fd_);
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<ListenSocket> ListenSocket::Listen(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  ListenSocket listener(fd, port);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(fd, 128) != 0) return Errno("listen");
  if (port == 0) {
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
        0) {
      return Errno("getsockname");
    }
    listener.port_ = ntohs(addr.sin_port);
  }
  return listener;
}

Result<Socket> ListenSocket::Accept() {
  if (fd_ < 0) return Status::FailedPrecondition("accept on invalid socket");
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

void ListenSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace d2pr
