// One shared, request-id-multiplexed connection to an RPC daemon — the
// client half of the wire protocol's hello/mux session extension
// (net/wire.h). Many threads issue logical calls on the same socket:
// Start() assigns a request id, wraps the request in a kMuxRequest
// envelope, and registers a waiter; a dedicated reader thread demultiplexes
// every incoming kMuxResponse to its waiter by id, so replies may return in
// any order and one slow call never blocks the wire for the others.
//
// Session: Dial() opens the session with kHello and requires a kHelloReply
// naming kProtocolVersion and granting kFeatureMux. Anything else — a
// kError, a reply from another protocol version, or one without the mux
// bit — fails the dial; the hello is the protocol's one version gate
// (docs/wire-protocol.md). A session always carries trace tails: every
// server of this version grants kFeatureTrace with mux.
//
// Timeouts: a call that misses its deadline is abandoned — the id is
// forgotten, late frames for it are discarded, and the connection stays
// usable (the stream is still frame-aligned). Frames that DID arrive
// before the deadline are handed back with the timeout, so a gather's
// partial share can be rescued rather than dropped.
//
// Lifetime: Shutdown() (or destruction) severs the socket; the reader
// fails every outstanding call with Unavailable and exits. A broken
// connection stays broken — callers redial, which is where the fan-out
// broker's backoff/circuit-breaker policy lives.

#ifndef MAGICRECS_NET_MUX_CONNECTION_H_
#define MAGICRECS_NET_MUX_CONNECTION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame_buf.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/result.h"
#include "util/status.h"

namespace magicrecs::net {

struct MuxConnectionOptions {
  /// Bounds the dial (see TcpSocket::Connect). 0 = kernel default.
  int connect_timeout_ms = 0;

  /// Bounds the hello exchange's reply read: a host whose kernel accepts
  /// the connection while the daemon process is wedged must fail the dial
  /// within this window, not hang it (and, behind the fan-out broker,
  /// everyone parked on the dialing flag with it). 0 = wait forever.
  int hello_timeout_ms = 0;

  /// When > 0, a call whose reply takes at least this many microseconds
  /// (Start to final frame) logs one line to stderr — and, when the reply
  /// is an ack echoing a trace tail, the per-stage breakdown with it, so a
  /// slow publish names the stage that ate the time. 0 = off. The
  /// client-side mirror of RpcServerOptions::slow_request_us.
  int64_t slow_call_us = 0;
};

class MuxConnection {
 public:
  /// One logical in-flight call. Opaque; thread-compatible (one thread
  /// awaits a given call, any number may hold the handle).
  struct Call {
    uint64_t id = 0;
    std::vector<Frame> frames;  ///< reply frames, in per-call order
    bool done = false;
    Status status;  ///< non-OK when the call failed (set before done)
    int64_t started_at_us = 0;  ///< set by Start when slow_call_us > 0
  };
  using CallHandle = std::shared_ptr<Call>;

  /// Connects (Nagle off) and runs the hello exchange, then starts the
  /// reader. Unavailable when the peer cannot be reached;
  /// FailedPrecondition when it refuses the hello, names another protocol
  /// version, or does not grant kFeatureMux.
  static Result<std::unique_ptr<MuxConnection>> Dial(
      const std::string& host, uint16_t port,
      const MuxConnectionOptions& options);

  ~MuxConnection();

  MuxConnection(const MuxConnection&) = delete;
  MuxConnection& operator=(const MuxConnection&) = delete;

  /// The per-connection in-flight cap the server advertised (0 = none).
  /// Start() enforces it.
  uint32_t server_max_inflight() const { return server_max_inflight_; }

  /// True once the connection failed; every Start/Await fails thereafter.
  bool broken() const;

  /// Sends one framed request (exactly one frame from the wire encoders)
  /// and registers its waiter. Blocks at the server's in-flight cap until
  /// a slot frees; `cap_wait_ms` bounds that wait
  /// (0 = forever) — a daemon that stops answering stops freeing slots,
  /// and without the bound a publisher would hang here ahead of every
  /// timeout that lives in Await. A cap-wait miss fails ONLY this call
  /// (Unavailable); the connection is not poisoned. A registered call
  /// fails only at Await, with any reply frames that arrived first.
  Result<CallHandle> Start(const std::string& framed_request,
                           int cap_wait_ms = 0);

  /// Zero-copy Start: the request rides as a FrameBuf, so the send builds
  /// its kMuxRequest envelope around the SAME payload block the
  /// caller encoded (the fan-out broker hands one refcounted publish frame
  /// to every daemon and every pipeline slot this way — no per-daemon
  /// copy). Sends go through a per-connection outbox chain drained by
  /// whichever caller becomes the writer; a Start that arrives while
  /// another thread is mid-write enqueues and returns once registered —
  /// its bytes follow in order, and a failure of that later write fails
  /// the call at Await. No lock is held across blocking socket I/O, so
  /// concurrent small calls are never convoyed behind one jumbo frame.
  Result<CallHandle> Start(FrameBuf framed_request, int cap_wait_ms = 0);

  /// Waits for the call's final reply frame and moves the frames out.
  /// `timeout_ms` 0 waits forever; otherwise it bounds SILENCE — each
  /// arriving reply frame extends the deadline, so a chunked reply that
  /// keeps streaming never times out mid-delivery (the per-read recv
  /// timeout semantics of a blocking socket read). On a timeout, frames
  /// that already arrived are still moved out (rescuable partial share)
  /// and the call is abandoned.
  Status Await(const CallHandle& call, int timeout_ms,
               std::vector<Frame>* frames);

  /// Start + Await; `timeout_ms` bounds both the cap wait and the reply
  /// silence.
  Status CallOne(const std::string& framed_request, int timeout_ms,
                 std::vector<Frame>* frames);
  Status CallOne(FrameBuf framed_request, int timeout_ms,
                 std::vector<Frame>* frames);

  /// Severs the socket: outstanding calls fail with Unavailable, the
  /// reader exits. Idempotent; the destructor calls it.
  void Shutdown();

 private:
  MuxConnection() = default;

  void ReaderLoop();

  /// Logs a completed call that outlived options_.slow_call_us, with its
  /// trace breakdown when the reply carried one.
  void MaybeLogSlowCall(const Call& call,
                        const std::vector<Frame>& frames) const;

  /// Fails every outstanding call and marks the connection broken.
  /// Caller holds mu_.
  void FailAllLocked(const Status& status);

  /// Drains outbox_ through scatter/gather writev. The first caller to
  /// find no writer active becomes the writer and drains until the chain
  /// is empty (including frames other threads enqueue meanwhile — write
  /// combining); everyone else returns immediately, their frames carried
  /// in order. mu_ is NEVER held across socket I/O: the writer fills its
  /// iovecs under the lock, releases it for the sendmsg (and for the
  /// bounded poll when the socket buffer is full), and re-acquires it to
  /// advance the cursor — the bounded per-write hold that keeps a jumbo
  /// frame from convoying concurrent request_ids. A write failure fails
  /// every call (FailAllLocked). `lock` holds mu_ on entry and on return.
  void FlushOutboxLocked(std::unique_lock<std::mutex>& lock);

  MuxConnectionOptions options_;
  TcpSocket socket_;
  uint32_t server_max_inflight_ = 0;
  std::thread reader_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_id_ = 1;
  bool broken_ = false;
  Status broken_status_;
  std::unordered_map<uint64_t, CallHandle> pending_;

  /// Frames owed to the socket, in registration order (mu_ guards the
  /// chain and writer_active_; the sole active writer is the only Advance
  /// caller, so the iovec pointers it captured stay pinned while mu_ is
  /// released around the syscall — Append only push_backs).
  OutboxChain outbox_;
  bool writer_active_ = false;
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_MUX_CONNECTION_H_
