#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <utility>

#include "util/str_format.h"

namespace magicrecs::net {
namespace {

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, std::strerror(errno)));
}

Status SetFdNonBlocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) != 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Result<sockaddr_in> MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("'%s' is not a numeric IPv4 address", host.c_str()));
  }
  return addr;
}

}  // namespace

// --- TcpSocket ---------------------------------------------------------------

TcpSocket::~TcpSocket() { Close(); }

TcpSocket::TcpSocket(TcpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Result<TcpSocket> TcpSocket::Connect(const std::string& host, uint16_t port,
                                     int connect_timeout_ms) {
  MAGICRECS_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  TcpSocket socket(fd);
  if (connect_timeout_ms <= 0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::Unavailable(StrFormat("connect %s:%u: %s", host.c_str(),
                                           port, std::strerror(errno)));
    }
    return socket;
  }
  // Bounded dial: non-blocking connect, poll for writability, then read
  // the deferred error. Blocking mode is restored before handing back.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable(StrFormat("connect %s:%u: %s", host.c_str(),
                                           port, std::strerror(errno)));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int polled;
    do {
      polled = ::poll(&pfd, 1, connect_timeout_ms);
    } while (polled < 0 && errno == EINTR);
    if (polled < 0) return Errno("poll(connect)");
    if (polled == 0) {
      return Status::Unavailable(StrFormat("connect %s:%u: timed out (%dms)",
                                           host.c_str(), port,
                                           connect_timeout_ms));
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::Unavailable(StrFormat("connect %s:%u: %s", host.c_str(),
                                           port, std::strerror(err)));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) return Errno("fcntl(restore)");
  return socket;
}

Status TcpSocket::WriteAll(const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a dead peer must surface as a Status, not SIGPIPE.
    const ssize_t written = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("connection closed by peer");
      }
      return Errno("send");
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status TcpSocket::SetNonBlocking(bool enabled) {
  return SetFdNonBlocking(fd_, enabled);
}

Result<IoChunk> TcpSocket::ReadChunk(void* data, size_t capacity) {
  IoChunk chunk;
  while (true) {
    const ssize_t r = ::recv(fd_, data, capacity, 0);
    if (r > 0) {
      chunk.bytes = static_cast<size_t>(r);
      return chunk;
    }
    if (r == 0) {
      chunk.eof = true;
      return chunk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      chunk.would_block = true;
      return chunk;
    }
    if (errno == ECONNRESET) {
      return Status::Unavailable("connection reset by peer");
    }
    return Errno("recv");
  }
}

Result<IoChunk> TcpSocket::WritevChunk(const struct iovec* iov, int iovcnt) {
  IoChunk chunk;
  while (true) {
    msghdr msg{};
    msg.msg_iov = const_cast<struct iovec*>(iov);
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    // MSG_NOSIGNAL: a dead peer must surface as a Status, not SIGPIPE.
    // MSG_DONTWAIT: one attempt only, even on a blocking fd — the caller
    // owns the decision to wait (PollWritable) and what to do meanwhile.
    const ssize_t written =
        ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (written >= 0) {
      chunk.bytes = static_cast<size_t>(written);
      return chunk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      chunk.would_block = true;
      return chunk;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return Status::Unavailable("connection closed by peer");
    }
    return Errno("sendmsg");
  }
}

Result<bool> TcpSocket::PollWritable(int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLOUT;
  int polled;
  do {
    polled = ::poll(&pfd, 1, timeout_ms);
  } while (polled < 0 && errno == EINTR);
  if (polled < 0) return Errno("poll(POLLOUT)");
  return polled > 0;
}

Status TcpSocket::SetNoDelay(bool enabled) {
  const int flag = enabled ? 1 : 0;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

Status TcpSocket::SetRecvTimeout(int millis) {
  if (millis < 0) return Status::InvalidArgument("negative recv timeout");
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

void TcpSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- TcpListener -------------------------------------------------------------

TcpListener::~TcpListener() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)),
      closed_(other.closed_.load(std::memory_order_relaxed)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    closed_.store(other.closed_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  }
  return *this;
}

Result<TcpListener> TcpListener::Listen(const std::string& host, uint16_t port,
                                        int backlog) {
  MAGICRECS_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  TcpListener listener;
  listener.fd_ = fd;
  const int reuse = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable(StrFormat("bind %s:%u: %s", host.c_str(), port,
                                         std::strerror(errno)));
  }
  if (::listen(fd, backlog) != 0) return Errno("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    return Errno("getsockname");
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<TcpSocket> TcpListener::Accept() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return TcpSocket(fd);
    if (errno == EINTR) continue;
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Aborted("listener closed");
    }
    return Errno("accept");
  }
}

Status TcpListener::SetNonBlocking(bool enabled) {
  return SetFdNonBlocking(fd_, enabled);
}

Result<TcpSocket> TcpListener::AcceptNonBlocking(bool* would_block) {
  *would_block = false;
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return TcpSocket(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return TcpSocket();
    }
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Aborted("listener closed");
    }
    // EMFILE / ECONNABORTED and friends: transient, the reactor should
    // keep serving the connections it has instead of dying.
    return Status::Unavailable(
        StrFormat("accept: %s", std::strerror(errno)));
  }
}

void TcpListener::Close() {
  closed_.store(true, std::memory_order_release);
  // Shutdown (not close) unblocks a concurrent Accept() without freeing the
  // fd number out from under it; the destructor releases the fd once the
  // accept loop has been joined.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace magicrecs::net
