// Thin RAII wrappers over POSIX TCP sockets — the only place in the net/
// subsystem that touches the sockets API. IPv4 numeric addresses only (the
// deployment story is "partition servers behind a broker on a flat
// network"; name resolution would drag in more surface than it is worth).

#ifndef MAGICRECS_NET_SOCKET_H_
#define MAGICRECS_NET_SOCKET_H_

#include <sys/uio.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace magicrecs::net {

/// Outcome of one read/write attempt (see TcpSocket::ReadChunk /
/// WritevChunk). Exactly one of {bytes > 0, would_block, eof} describes
/// what happened; errors travel as the surrounding Result's Status.
struct IoChunk {
  size_t bytes = 0;        ///< bytes moved by this attempt
  bool would_block = false;///< the fd had nothing to give / no room
  bool eof = false;        ///< reads only: the peer closed the connection
};

/// A connected stream socket. Move-only; the destructor closes the fd.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket();

  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Connects to host:port (numeric IPv4, e.g. "127.0.0.1").
  /// `connect_timeout_ms` > 0 bounds the connect itself (non-blocking dial
  /// + poll) — without it a silently dropping host stalls the caller for
  /// the kernel's SYN-retry timeout (minutes); 0 keeps the blocking dial.
  static Result<TcpSocket> Connect(const std::string& host, uint16_t port,
                                   int connect_timeout_ms = 0);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all n bytes (retrying partial writes). Unavailable if the peer
  /// closed the connection, Internal on other errors.
  Status WriteAll(const void* data, size_t n);

  /// Disables Nagle's algorithm (latency-sensitive request/response).
  Status SetNoDelay(bool enabled);

  /// Flips O_NONBLOCK — the daemon's epoll loop runs every connection fd
  /// non-blocking and uses ReadChunk/WritevChunk below.
  Status SetNonBlocking(bool enabled);

  /// One recv() attempt: reads up to `capacity` bytes without blocking
  /// semantics beyond the fd's own mode. On a non-blocking fd an empty
  /// socket reports would_block instead of an error, and so does a
  /// blocking fd whose SO_RCVTIMEO expired; an orderly close reports eof.
  /// Connection-fatal conditions (ECONNRESET, ...) surface as Unavailable.
  /// Every frame reader goes through it (net/frame_io.h).
  Result<IoChunk> ReadChunk(void* data, size_t capacity);

  /// One scatter/gather sendmsg attempt over `iov[0..iovcnt)`. Never
  /// blocks regardless of the fd's mode (MSG_DONTWAIT): a full socket
  /// buffer reports would_block, which lets the mux client's writer poll
  /// for room without holding its lock while the reader blocks in recv.
  /// A dead peer is Unavailable.
  Result<IoChunk> WritevChunk(const struct iovec* iov, int iovcnt);

  /// Polls the fd for writability. True when writable, false on the
  /// timeout; fd-level failures surface as the Status.
  Result<bool> PollWritable(int timeout_ms);

  /// Bounds every subsequent blocking read: a peer silent for longer than
  /// `millis` makes ReadChunk report would_block, which ReceiveInto
  /// (net/frame_io.h) turns into Unavailable ("timed out"), instead of
  /// hanging forever — the fan-out broker's defense against a wedged
  /// daemon. 0 restores the blocking default. The connection must be
  /// abandoned after a timeout: a reply may be half-read.
  Status SetRecvTimeout(int millis);

  /// Shuts down both directions (unblocks a peer's blocking read) without
  /// closing the fd.
  void Shutdown();

  /// Closes the fd. Idempotent.
  void Close();

 private:
  int fd_ = -1;
};

/// A listening socket. Move-only; the destructor closes.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on host:port. Port 0 picks an ephemeral port;
  /// port() reports the actual one.
  static Result<TcpListener> Listen(const std::string& host, uint16_t port,
                                    int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  /// Blocks for the next connection. Aborted once Close() has been called
  /// (the accept loop's clean shutdown signal).
  Result<TcpSocket> Accept();

  /// Flips O_NONBLOCK on the listening fd (the reactor polls it).
  Status SetNonBlocking(bool enabled);

  /// One accept attempt on a non-blocking listener. `*would_block` is set
  /// when no connection is pending (the returned socket is invalid and the
  /// status OK). Transient per-connection failures (ECONNABORTED, EMFILE)
  /// surface as Unavailable so the reactor can log-and-continue; Aborted
  /// after Close().
  Result<TcpSocket> AcceptNonBlocking(bool* would_block);

  /// Stops accepting: shuts the listening socket down so a blocked
  /// Accept() returns Aborted. The fd itself is released by the destructor,
  /// after the accept loop has observably stopped using it.
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> closed_{false};
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_SOCKET_H_
