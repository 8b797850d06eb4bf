// The daemon side of the RPC layer: a TCP listener and an epoll loop,
// dispatching decoded frames onto a ClusterTransport. This is the fan-out
// broker boundary of the paper's deployment — magicrecsd is a thin main()
// around this class.
//
// One loop thread multiplexes the listener and every connection fd through
// epoll: non-blocking reads feed an incremental FrameAssembler, decoded
// requests are dispatched onto a small ThreadPool, responses drain through
// per-connection write buffers with partial-write state machines.
// Connection count is bounded by fds, not threads — the shape the paper's
// "millions of users behind a handful of hosts" deployment needs. Every
// connection speaks the one session protocol of net/wire.h: a hello first
// (the version gate), then mux-enveloped requests, so one connection
// carries many logical calls identified by request_id. The data path per
// connection:
//
//   EPOLLIN -> non-blocking ReadChunks until the socket would block ->
//   FrameAssembler (partial-read state machine) -> session gate (the
//   opening hello is answered inline; mux envelopes are parked in arrival
//   order) -> once the readiness event is drained, dispatch of the parked
//   requests as runs (see below), each one task onto the worker
//   ThreadPool -> one completion per run -> the loop appends the run's
//   replies to the connection's outbox -> non-blocking WritevChunk with
//   partial-write carry + EPOLLOUT when the socket buffer fills.
//
// Ordering and backpressure: requests that mutate the event stream
// (IsOrderSensitive) are applied in per-connection arrival order; on a
// muxed connection order-free reads may overtake a stalled write. A run is
// what one worker task serves: an order-free request alone, a drain,
// checkpoint or replica op alone (they may block for long, and acks held
// behind them could trip the peer's receive timeout), or a publish-batch
// together with every publish-batch parked directly behind it — served in
// order, answered in one flush. A run is cut from what one readiness
// event delivered: nothing is dispatched mid-read, so a broker's window,
// written at once, is one run however many read chunks it spans. Each
// connection caps dispatched-but-unanswered requests at
// max_inflight_per_conn, each request of a run counting against it — at
// the cap the loop stops reading that connection, the kernel's TCP window
// fills, and the peer blocks: end-to-end backpressure without a thread
// pinned per peer.
//
// Protocol-error policy (exercised by tests/net/rpc_robustness_test.cc and
// tests/net/epoll_server_test.cc):
//   * a session violation — a first frame that is not a hello, a hello
//     with another proto_version or without the mux bit, a second hello,
//     or a bare (non-mux) request after the hello -> kError
//     (FailedPrecondition), then the connection is closed;
//   * a well-framed mux envelope whose inner tag is unknown, or whose
//     payload does not decode -> kError reply, the connection stays
//     usable;
//   * transport-level failure -> kError reply carrying the Status, the
//     connection stays usable;
//   * oversized length prefix or CRC mismatch -> kError response, then the
//     connection is closed: the byte stream can no longer be trusted to be
//     frame-aligned;
//   * truncated frame / dropped connection -> the connection is reaped.
// A closing kError never overtakes replies owed to earlier requests.
// None of these touch the other connections or the daemon's lifetime.
//
// Acknowledged takes: a gather's recommendations stay with the server
// until the broker says it merged them, the mirror image of the publish
// side's replay buffer. The server holds each broker's last reply, the
// encoded frames it sent, under that reply's take id, keyed by the
// broker's random per-incarnation id (wire.h). A take whose ack (its entry
// for this server's placement) names the held id frees it; any other take
// carries its recommendations into that broker's own reply, ahead of the
// fresh TakeRecommendations(). A reply lost on the wire or cut short, or
// merged by no successful gather, is therefore simply sent again — to the
// broker it was sent to, so brokers sharing a daemon still receive
// disjoint shares. Holding the bytes rather than the decoded
// recommendations keeps the daemon's memory where it was with destructive
// takes: the bytes existed until the write anyway, and only a carry
// decodes them again. Takes are serialized per server. Take ids start at
// a random per-incarnation epoch and are never 0, so a restarted server
// never matches a stale cursor. Delivery is exactly once per broker while
// that broker and this server live. A restarted broker is a new broker:
// its predecessor's last reply is not sent again, and stays held until
// kMaxHeldReplies newer brokers push it out, counted as dropped. A stopped
// server loses what it held.

#ifndef MAGICRECS_NET_RPC_SERVER_H_
#define MAGICRECS_NET_RPC_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/transport.h"
#include "net/frame_buf.h"
#include "net/frame_io.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/result.h"
#include "util/status.h"

namespace magicrecs {
class Counter;
class EventLog;
class Gauge;
class HealthMonitor;
class HistogramMetric;
class ThreadPool;
}  // namespace magicrecs

namespace magicrecs::net {

struct RpcServerOptions {
  /// Numeric IPv4 listen address.
  std::string host = "127.0.0.1";

  /// 0 picks an ephemeral port (see RpcServer::port()).
  uint16_t port = 0;

  /// Cap on dispatched-but-unanswered requests per connection, each
  /// request of a publish run counting once; at the cap the loop stops
  /// reading that peer (backpressure) and a run stops growing. Also
  /// advertised in the hello reply as the client's pipelining budget.
  size_t max_inflight_per_conn = 64;

  /// Worker threads requests are dispatched onto.
  int worker_threads = 4;

  /// Log any request whose handler runs at least this long (stderr, plus
  /// the rpc_slow_requests registry counter). 0 disables.
  int64_t slow_request_us = 0;

  /// > 0 runs a self-health monitor (health/health_monitor.h) on this
  /// interval: windowed rates of this server's own in-flight stalls,
  /// protocol errors, and slow requests feed the rule engine, whose state
  /// lands in the `health{party=...}` gauge the kStatsText scrape renders.
  /// The party is named after the transport's placement (HealthPartyName:
  /// "pN" for a group member, else "host:port").
  /// Recommendations dropped past the carry bound score as replay loss.
  /// The other rules do not apply: a daemon has no replay buffers or
  /// gather staleness of its own; those are the broker's view of it. 0
  /// (the default) runs no monitor thread.
  int health_interval_ms = 0;

  /// Where health transitions are journaled (JSONL, util/event_log.h).
  /// Borrowed, may be null, must outlive the server when set.
  EventLog* event_journal = nullptr;
};

/// Lifetime counters, readable while the server runs. Since PR 6 these are
/// views over the process-wide MetricsRegistry (labeled server="host:port")
/// minus a Start()-time baseline, so stats() stays per-server-lifetime even
/// when a port is reused by sequential servers in one process while the
/// kStatsText scrape surface sees the same counters with no extra plumbing.
struct RpcServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_served = 0;   ///< responses sent, errors included
  uint64_t protocol_errors = 0;   ///< malformed frames / unknown tags
  uint64_t duplicate_batches = 0; ///< replayed copies suppressed by dedup

  // Loop / session counters (the scrape's rpc_* series).
  uint32_t connections_open = 0;
  uint64_t partial_reads = 0;     ///< reads that left a frame incomplete
  uint64_t partial_writes = 0;    ///< writes cut short by a full buffer
  uint64_t inflight_stalls = 0;   ///< reads paused at the in-flight cap
  uint64_t mux_connections = 0;   ///< connections that completed the hello
  uint64_t slow_requests = 0;     ///< handlers past slow_request_us
  uint64_t carry_dropped = 0;     ///< held recommendations past the bound
};

/// How many recently applied publish-batch sequences the server remembers
/// (shared across connections): a broker's replay of a frame the daemon
/// already applied under the same sequence is acked without applying it.
inline constexpr size_t kPublishDedupWindow = 4096;

/// How many held recommendations an unacknowledged take carries into the
/// next reply; the rest are dropped and counted in rpc_carry_dropped. The
/// fresh recommendations a take appends are never bounded.
inline constexpr size_t kMaxCarriedRecommendations = 1 << 16;

/// How many brokers' last replies a server holds at once. A take from a
/// further broker drops the held reply of the broker that took least
/// recently (most likely one that restarted or left), counted in
/// rpc_carry_dropped: the server cannot tell whether that broker merged it.
inline constexpr size_t kMaxHeldReplies = 16;

class RpcServer {
 public:
  /// Binds, listens, and starts the loop. `transport` must be thread-safe
  /// and outlive the server; the server never owns it, so one daemon
  /// process can host several servers over distinct transports.
  static Result<std::unique_ptr<RpcServer>> Start(
      ClusterTransport* transport, const RpcServerOptions& options);

  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// The bound port (resolves an ephemeral request).
  uint16_t port() const { return listener_.port(); }
  const std::string& host() const { return options_.host; }

  /// Stops accepting, severs open connections, joins every thread.
  /// Idempotent.
  void Stop();

  RpcServerStats stats() const;

 private:
  /// One request waiting for (or blocked from) dispatch: the whole mux
  /// envelope (unwrapped by HandleMuxEnvelope on the worker); only the
  /// inner tag was peeked, for the ordering classification and for
  /// gathering publish runs. A payload too short to hold an inner tag
  /// keeps the zero tag, which no request uses: order-free, answered with
  /// its decode error.
  struct Parked {
    Frame frame;
    MessageTag inner_tag = MessageTag{0};
  };

  /// Per-connection state. Owned and touched by the loop thread only.
  struct Conn {
    uint64_t id = 0;
    TcpSocket socket;
    FrameAssembler assembler;

    /// Response frames owed to the peer: refcounted segments flushed via
    /// writev with a partial-write cursor — never concatenated, never
    /// compacted.
    OutboxChain outbox;

    std::deque<Parked> parked;
    size_t inflight = 0;       ///< dispatched, completion not yet drained
    bool serial_busy = false;  ///< an order-sensitive request is running
    bool hello_done = false;   ///< the opening hello was accepted
    bool read_paused = false;  ///< EPOLLIN dropped at the in-flight cap
    bool eof_seen = false;     ///< peer half-closed; serve what is parked
    bool drop_residue = false; ///< truncated tail at EOF: ignore buffer
    bool close_after_flush = false;  ///< reply queued; sever once flushed

    /// A framing or session violation waiting to be reported. The error
    /// reply is deferred until every earlier request has answered, so it
    /// never overtakes replies the peer is owed; reading stays paused
    /// forever.
    Status framing_error;
    uint32_t interest = 0;     ///< epoll events currently registered
  };

  /// One finished run, handed from a worker back to the loop. The replies
  /// ride as one FrameBuf chain, in request order, so appending them to
  /// the outbox splices segment references instead of copying bytes.
  struct Completion {
    uint64_t conn_id = 0;
    size_t requests = 0;  ///< requests the run served
    bool order_sensitive = false;
    FrameBuf buf;
  };

  RpcServer(ClusterTransport* transport, const RpcServerOptions& options);

  // Start()'s steps after the listen, in order.

  /// Resolves the registry counters and records the stats() baseline.
  void ResolveMetrics();
  /// Creates the epoll instance and wake eventfd, flips the listener
  /// non-blocking, spawns the worker pool and then the loop thread.
  Status StartLoop();
  void StartHealthMonitor();

  // The loop (loop thread only, except Wake).

  void Run();
  void Wake();

  void AcceptReady();

  /// Transient accept failure (EMFILE flood): drops the listener's epoll
  /// interest for a short backoff instead of sleeping the loop thread (it
  /// is the only I/O thread); Run()'s wait timeout re-arms it.
  void PauseAccept();
  void ResumeAccept();

  void HandleConnEvent(uint64_t id, uint32_t events);

  /// Reads until the socket would block (or reading pauses), parking every
  /// frame, then dispatches what was parked: what one readiness event
  /// delivered is served as one run, however many read chunks it took.
  void ReadReady(Conn* conn);

  /// Pulls complete frames out of the assembler, up to the in-flight cap,
  /// and passes each through ParkFrame; dispatches nothing. A framing
  /// error or session violation pauses reading and records the deferred
  /// error reply.
  void ParkFrames(Conn* conn);

  /// The session gate: answers the opening hello inline and parks mux
  /// envelopes. Returns the violation for any other frame.
  Status ParkFrame(Conn* conn, Frame frame);

  /// Emits the deferred framing-error reply once the connection owes
  /// nothing earlier, then marks it close-after-flush.
  void SettleFramingError(Conn* conn);

  /// Dispatches parked requests as runs within the ordering and in-flight
  /// rules.
  void TryDispatch(Conn* conn);
  /// Submits one worker task that serves `run` in order and pushes one
  /// completion for it.
  void Dispatch(Conn* conn, std::vector<Frame> run, bool order_sensitive);
  void DrainCompletions();

  /// Writes as much outbox as the socket takes; arms EPOLLOUT on a partial
  /// write. Returns false when the connection died and was destroyed.
  bool FlushOutbox(Conn* conn);

  /// Destroys the connection when it has nothing left to do (EOF drained,
  /// or a post-error flush completed). Returns false when destroyed.
  bool MaybeClose(Conn* conn);

  void UpdateInterest(Conn* conn);
  void DestroyConn(Conn* conn);

  // Handlers.

  /// Checks a connection's opening kHello — the session's version gate —
  /// and on success appends the kHelloReply. A hello that does not decode,
  /// names another proto_version, or does not ask for mux returns the
  /// error the loop answers before it closes the connection.
  Status HandleHello(const Frame& request, std::string* response);

  /// Unwraps one kMuxRequest envelope, serves the inner request (the
  /// slow-request timing point), and sets the id-wrapped reply frames (or
  /// a bare error for a mangled envelope payload — the stream itself is
  /// still aligned). The inner reply frames are encoded once and every
  /// kMuxResponse envelope shares that block — no per-chunk body copy;
  /// byte-identical to the string encoder WrapMuxResponses (locked by the
  /// egress tests). Runs on several workers at once.
  void HandleMuxEnvelope(const Frame& envelope, FrameBuf* response);

  /// Serves one kTakeRecommendations (see "Acknowledged takes" above):
  /// frees or carries the requesting broker's held reply per its ack,
  /// appends the fresh TakeRecommendations(), and returns the reply frames
  /// of the result under a new take id — the block it now holds for that
  /// broker.
  Result<FrameBuf::Block> Take(std::string_view payload);

  /// Idempotent-batch admission. True iff `sequence` was already APPLIED
  /// inside the dedup window — the caller acks without applying. Otherwise
  /// marks the sequence in flight and returns false; the caller MUST
  /// follow up with FinishBatch(sequence, applied). A duplicate arriving
  /// while the original's apply is still in flight blocks here until that
  /// apply resolves: suppressing it immediately would ack events that may
  /// yet fail to land (the original's failure would then be silent loss),
  /// so it is suppressed only on the original's success and claims the
  /// sequence itself on the original's failure.
  bool BeginBatch(uint64_t sequence);

  /// Resolves an in-flight sequence. `applied` records it in the dedup
  /// window; a failed apply leaves no trace, so a broker replay of the
  /// same frame is applied instead of dup-acked. Wakes racing duplicates
  /// blocked in BeginBatch either way.
  void FinishBatch(uint64_t sequence, bool applied);

  ClusterTransport* transport_;
  RpcServerOptions options_;
  /// transport_->placement(), read once: every hello reply carries it.
  Placement placement_;
  /// Who this server stamps into trace contexts (util/trace.h): its hosted
  /// global partition, or kTracePartyAllHosting.
  uint32_t stamp_party_ = kTracePartyAllHosting;
  TcpListener listener_;
  std::string address_;  ///< "host:port": the metrics label and log name

  /// Set once by Stop(); the loop thread exits when it sees it.
  std::atomic<bool> stopped_{false};

  // Loop state. The loop thread owns every Conn; workers only see copies
  // of decoded frames and push completed replies through completions_,
  // waking the loop via wake_fd_.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake eventfd
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  bool accept_paused_ = false;
  std::chrono::steady_clock::time_point accept_resume_{};
  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  /// Outcome record for a sequence whose apply is in flight. Shared with
  /// every duplicate waiting on it: the outcome is handed to waiters
  /// through this record, NOT re-read from the evictable dedup window — a
  /// success evicted from the window between the resolve and a waiter's
  /// wake-up must still suppress that waiter, never double-apply.
  struct InflightBatch {
    bool resolved = false;
    bool applied = false;
  };

  // Publish-batch idempotency window: the set for O(1) lookup, the deque
  // for FIFO eviction once the window is full, plus the in-flight records
  // (applied sequences enter the window only on success; dedup_cv_ wakes
  // duplicates waiting on an in-flight original).
  std::mutex dedup_mu_;
  std::condition_variable dedup_cv_;
  std::unordered_set<uint64_t> seen_batch_sequences_;
  std::unordered_map<uint64_t, std::shared_ptr<InflightBatch>>
      inflight_batches_;
  std::deque<uint64_t> seen_batch_order_;

  /// One broker's last reply: its frames (null once acknowledged), how
  /// many recommendations they hold, and its take id. The take id also
  /// dates the broker's last take: next_take_ - take is its age.
  struct HeldReply {
    FrameBuf::Block frames;
    size_t count = 0;
    uint64_t take = 0;
  };

  // The acknowledged take's state: each broker's held reply, by broker id
  // (at most kMaxHeldReplies), and the take-id source, seeded with a random
  // epoch at construction.
  std::mutex take_mu_;
  std::unordered_map<uint64_t, HeldReply> held_;
  uint64_t next_take_ = 0;

  /// Registry-backed counters (util/metrics.h), labeled with address_ and
  /// resolved once in Start() after the listen socket is bound (an
  /// ephemeral port is only known then). The registry entries are
  /// process-lifetime and monotonic; baseline_ records their values at
  /// Start() so stats() can report per-server-lifetime deltas even when
  /// sequential servers in one process reuse a port.
  Counter* connections_accepted_metric_ = nullptr;
  Counter* requests_served_metric_ = nullptr;
  Counter* protocol_errors_metric_ = nullptr;
  Counter* duplicate_batches_metric_ = nullptr;
  Gauge* connections_open_metric_ = nullptr;
  Counter* partial_reads_metric_ = nullptr;
  Counter* partial_writes_metric_ = nullptr;
  Counter* inflight_stalls_metric_ = nullptr;
  Counter* mux_connections_metric_ = nullptr;
  Counter* slow_requests_metric_ = nullptr;
  Counter* carry_dropped_metric_ = nullptr;

  // Zero-copy egress counters: writev (sendmsg) calls issued, bytes they
  // moved, and a histogram of whole frames each call retired — the
  // coalescing the iovec chain buys over one-write-per-response.
  Counter* writev_calls_metric_ = nullptr;
  Counter* egress_bytes_metric_ = nullptr;
  HistogramMetric* frames_per_writev_metric_ = nullptr;
  RpcServerStats baseline_;

  // The threads, declared after everything they touch. Stop() joins the
  // loop before the pool, so no worker outlives the completion queue.
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;

  /// Self-health monitor (present only when health_interval_ms > 0).
  /// Created last in Start(), destroyed first in Stop(): its collector
  /// reads this server's registry counters, which outlive both.
  std::unique_ptr<HealthMonitor> health_monitor_;
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_RPC_SERVER_H_
