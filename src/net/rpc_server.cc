#include "net/rpc_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <random>
#include <span>
#include <string_view>
#include <utility>

#include "health/health_monitor.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/str_format.h"
#include "util/thread_pool.h"

namespace magicrecs::net {
namespace {

constexpr int kListenBacklog = 64;
constexpr uint64_t kListenerToken = 0;
constexpr uint64_t kWakeToken = 1;

}  // namespace

RpcServer::RpcServer(ClusterTransport* transport,
                     const RpcServerOptions& options)
    : transport_(transport),
      options_(options),
      placement_(transport->placement()),
      stamp_party_(placement_.partition == Placement::kAllPartitions
                       ? kTracePartyAllHosting
                       : placement_.partition) {
  // A random epoch per incarnation, as the broker seeds its batch
  // sequences: a restarted server must not reuse the id a broker's cursor
  // still names, or that broker would free a reply it never merged.
  std::random_device rd;
  next_take_ = (static_cast<uint64_t>(rd()) << 32) | rd();
}

Result<std::unique_ptr<RpcServer>> RpcServer::Start(
    ClusterTransport* transport, const RpcServerOptions& options) {
  if (transport == nullptr) {
    return Status::InvalidArgument("transport must be non-null");
  }
  if (options.max_inflight_per_conn == 0) {
    return Status::InvalidArgument("max_inflight_per_conn must be >= 1");
  }
  if (options.worker_threads <= 0) {
    return Status::InvalidArgument("worker_threads must be >= 1");
  }
  // A step that fails below destroys the server, whose Stop() undoes only
  // what was built; no thread exists until StartLoop's last step.
  std::unique_ptr<RpcServer> server(new RpcServer(transport, options));
  MAGICRECS_ASSIGN_OR_RETURN(
      server->listener_,
      TcpListener::Listen(options.host, options.port, kListenBacklog));
  server->address_ = StrFormat("%s:%u", options.host.c_str(),
                               static_cast<unsigned>(server->port()));
  server->ResolveMetrics();
  MAGICRECS_RETURN_IF_ERROR(server->StartLoop());
  if (options.health_interval_ms > 0) server->StartHealthMonitor();
  return server;
}

void RpcServer::ResolveMetrics() {
  // Resolved now that the bound port is known (an ephemeral request has
  // resolved) and BEFORE any serving thread exists, so the hot paths
  // increment through already-cached pointers. The baseline snapshot makes
  // stats() a per-server-lifetime delta even when a later server in this
  // process reuses the same host:port label.
  const MetricLabels labels = {{"server", address_}};
  MetricsRegistry* registry = MetricsRegistry::Default();
  connections_accepted_metric_ =
      registry->GetCounter("rpc_connections_accepted", labels);
  requests_served_metric_ = registry->GetCounter("rpc_requests_served", labels);
  protocol_errors_metric_ = registry->GetCounter("rpc_protocol_errors", labels);
  duplicate_batches_metric_ =
      registry->GetCounter("rpc_duplicate_batches", labels);
  connections_open_metric_ = registry->GetGauge("rpc_connections_open", labels);
  partial_reads_metric_ = registry->GetCounter("rpc_partial_reads", labels);
  partial_writes_metric_ = registry->GetCounter("rpc_partial_writes", labels);
  inflight_stalls_metric_ = registry->GetCounter("rpc_inflight_stalls", labels);
  mux_connections_metric_ = registry->GetCounter("rpc_mux_connections", labels);
  slow_requests_metric_ = registry->GetCounter("rpc_slow_requests", labels);
  carry_dropped_metric_ = registry->GetCounter("rpc_carry_dropped", labels);
  writev_calls_metric_ = registry->GetCounter("rpc_writev_calls", labels);
  egress_bytes_metric_ = registry->GetCounter("rpc_egress_bytes", labels);
  frames_per_writev_metric_ =
      registry->GetHistogram("rpc_frames_per_writev", labels);
  baseline_ = stats();  // from here stats() counts up from zero
}

Status RpcServer::StartLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(
        StrFormat("epoll_create1: %s", std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::Internal(StrFormat("eventfd: %s", std::strerror(errno)));
  }
  MAGICRECS_RETURN_IF_ERROR(listener_.SetNonBlocking(true));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(listener): %s", std::strerror(errno)));
  }
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(eventfd): %s", std::strerror(errno)));
  }

  pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  loop_thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void RpcServer::StartHealthMonitor() {
  // Self-health: the daemon grades its own serving behavior from the same
  // registry counters the scrape surface renders. Only the rate rules fire
  // (recommendations dropped past the carry bound are its replay loss) —
  // replay depth and gather staleness are the broker's view of this
  // daemon, not its own.
  const std::string party = HealthPartyName(
      placement_.partition == Placement::kAllPartitions
          ? std::nullopt
          : std::optional<uint32_t>(placement_.partition),
      options_.host, port());
  health_monitor_ = std::make_unique<HealthMonitor>(
      MetricsRegistry::Default(), options_.event_journal,
      std::vector<const Counter*>{inflight_stalls_metric_,
                                  protocol_errors_metric_,
                                  slow_requests_metric_,
                                  carry_dropped_metric_},
      [party](std::span<const double> rates, HealthInputs* inputs) {
        HealthInputs::Party self;
        self.name = party;
        self.inflight_stall_rate_per_s = rates[0];
        self.protocol_error_rate_per_s = rates[1];
        self.slow_request_rate_per_s = rates[2];
        self.replay_loss_rate_per_s = rates[3];
        inputs->parties.push_back(std::move(self));
      },
      options_.health_interval_ms);
}

RpcServer::~RpcServer() { Stop(); }

void RpcServer::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  // Join the health monitor first: its collector reads this server's
  // registry counters through cached pointers, and the journal it writes
  // is only guaranteed to outlive the server, not Stop().
  health_monitor_.reset();
  listener_.Close();  // refuses new peers; the open ones are severed below
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Workers may still be running handlers; their completions land in the
  // (now unread) queue and their Wake() hits a still-open eventfd. The
  // pool's destructor waits them out BEFORE the fds close.
  pool_.reset();
  if (!conns_.empty()) {
    connections_open_metric_->Add(-static_cast<int64_t>(conns_.size()));
    conns_.clear();  // closes the sockets
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

RpcServerStats RpcServer::stats() const {
  RpcServerStats stats;
  stats.connections_accepted =
      connections_accepted_metric_->Value() - baseline_.connections_accepted;
  stats.requests_served =
      requests_served_metric_->Value() - baseline_.requests_served;
  stats.protocol_errors =
      protocol_errors_metric_->Value() - baseline_.protocol_errors;
  stats.duplicate_batches =
      duplicate_batches_metric_->Value() - baseline_.duplicate_batches;
  stats.connections_open =
      static_cast<uint32_t>(connections_open_metric_->Value());
  stats.partial_reads = partial_reads_metric_->Value() - baseline_.partial_reads;
  stats.partial_writes =
      partial_writes_metric_->Value() - baseline_.partial_writes;
  stats.inflight_stalls =
      inflight_stalls_metric_->Value() - baseline_.inflight_stalls;
  stats.mux_connections =
      mux_connections_metric_->Value() - baseline_.mux_connections;
  stats.slow_requests = slow_requests_metric_->Value() - baseline_.slow_requests;
  stats.carry_dropped =
      carry_dropped_metric_->Value() - baseline_.carry_dropped;
  return stats;
}

void RpcServer::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  ssize_t r;
  do {
    r = ::write(wake_fd_, &one, sizeof(one));
  } while (r < 0 && errno == EINTR);
  // EAGAIN means the counter is already nonzero: the loop will wake.
}

void RpcServer::Run() {
  epoll_event events[64];
  while (!stopped_.load(std::memory_order_acquire)) {
    // Normally the loop blocks indefinitely; during an accept backoff it
    // wakes at the resume point to re-arm the listener.
    int timeout_ms = -1;
    if (accept_paused_) {
      const auto now = std::chrono::steady_clock::now();
      timeout_ms = std::max<int>(
          1, static_cast<int>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     accept_resume_ - now)
                     .count()));
    }
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)),
                               timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself is broken; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
      } else if (token == kListenerToken) {
        AcceptReady();
      } else {
        HandleConnEvent(token, events[i].events);
      }
      if (stopped_.load(std::memory_order_acquire)) return;
    }
    if (accept_paused_ &&
        std::chrono::steady_clock::now() >= accept_resume_) {
      ResumeAccept();
    }
    DrainCompletions();
  }
}

void RpcServer::PauseAccept() {
  // Transient accept failure (e.g. EMFILE under a connection flood): keep
  // serving the connections we have. The loop must NOT sleep — it is the
  // only I/O thread — so the listener's interest is dropped and the wait
  // timeout above re-arms it after the backoff.
  epoll_event ev{};
  ev.events = 0;
  ev.data.u64 = kListenerToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listener_.fd(), &ev) == 0) {
    accept_paused_ = true;
    accept_resume_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(10);
  }
}

void RpcServer::ResumeAccept() {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listener_.fd(), &ev) == 0) {
    accept_paused_ = false;
    AcceptReady();  // drain whatever queued during the pause
  }
}

void RpcServer::AcceptReady() {
  while (!stopped_.load(std::memory_order_acquire)) {
    bool would_block = false;
    Result<TcpSocket> accepted = listener_.AcceptNonBlocking(&would_block);
    if (!accepted.ok()) {
      if (accepted.status().IsAborted()) return;  // listener closed (Stop)
      PauseAccept();
      return;
    }
    if (would_block) return;
    connections_accepted_metric_->Increment();
    (void)accepted->SetNoDelay(true);  // request/response traffic
    if (!accepted->SetNonBlocking(true).ok()) continue;  // drops the socket
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->socket = std::move(accepted).value();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->socket.fd(), &ev) != 0) {
      continue;  // socket closes with conn going out of scope
    }
    conn->interest = EPOLLIN;
    connections_open_metric_->Add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void RpcServer::UpdateInterest(Conn* conn) {
  uint32_t wanted = 0;
  if (!conn->read_paused && !conn->eof_seen && !conn->close_after_flush) {
    wanted |= EPOLLIN;
  }
  if (!conn->outbox.empty()) wanted |= EPOLLOUT;
  if (wanted == conn->interest) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->socket.fd(), &ev) == 0) {
    conn->interest = wanted;
  }
}

void RpcServer::DestroyConn(Conn* conn) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->socket.fd(), nullptr);
  connections_open_metric_->Add(-1);
  conns_.erase(conn->id);  // closes the socket
}

void RpcServer::HandleConnEvent(uint64_t id, uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  // EPOLLERR/EPOLLHUP report regardless of the registered interest mask.
  // When the read path cannot consume them (reads paused at the cap or
  // after a framing error, or EOF already seen) the peer is gone and
  // nothing owed can be delivered — destroy now, or the level-triggered
  // event would spin the loop at 100% until the connection quiesced.
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 &&
      (conn->read_paused || conn->eof_seen)) {
    if (!conn->eof_seen) protocol_errors_metric_->Increment();
    DestroyConn(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!FlushOutbox(conn)) return;
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
    ReadReady(conn);
    if (conns_.find(id) == conns_.end()) return;  // died during the read
  }
  if (!FlushOutbox(conn)) return;
  (void)MaybeClose(conn);
}

void RpcServer::ReadReady(Conn* conn) {
  char buf[kReadChunkBytes];
  while (!conn->read_paused && !conn->eof_seen && !conn->close_after_flush) {
    Result<IoChunk> chunk = conn->socket.ReadChunk(buf, sizeof(buf));
    if (!chunk.ok()) {
      // Reset or a genuine socket error: not an orderly end-of-session, so
      // it counts like any other mid-stream death.
      protocol_errors_metric_->Increment();
      DestroyConn(conn);
      return;
    }
    if (chunk->would_block) break;
    if (chunk->eof) {
      conn->eof_seen = true;
      if (conn->assembler.mid_frame()) {
        // Peer hung up inside a frame (or left undecodable residue): the
        // truncated tail is unservable.
        protocol_errors_metric_->Increment();
        conn->drop_residue = true;
      }
      break;
    }
    conn->assembler.Append(buf, chunk->bytes);
    ParkFrames(conn);
    // Count a partial read only when parsing genuinely stopped short of a
    // frame boundary: a cap stall (read_paused) leaves COMPLETE frames
    // buffered and already has its own counter.
    if (conn->assembler.mid_frame() && !conn->read_paused) {
      partial_reads_metric_->Increment();
    }
  }
  // Dispatch only now: every frame this readiness event delivered is
  // parked, so a burst the peer wrote at once is served as one run however
  // many read chunks it spanned.
  TryDispatch(conn);
  SettleFramingError(conn);
  UpdateInterest(conn);
}

void RpcServer::ParkFrames(Conn* conn) {
  const size_t cap = options_.max_inflight_per_conn;
  while (!conn->close_after_flush) {
    if (conn->parked.size() + conn->inflight >= cap) {
      if (!conn->read_paused) {
        conn->read_paused = true;
        inflight_stalls_metric_->Increment();
      }
      break;
    }
    Frame frame;
    bool ready = false;
    const Status next = conn->assembler.Next(&frame, &ready);
    if (!next.ok()) {
      // Malformed framing (oversized length, CRC mismatch, empty body):
      // after it the stream offsets can no longer be trusted, so no more
      // reading. The error reply itself is deferred until every earlier
      // request has answered — it must not overtake replies the peer is
      // still owed (SettleFramingError).
      protocol_errors_metric_->Increment();
      conn->framing_error = next;
      conn->read_paused = true;
      break;
    }
    if (!ready) break;
    const Status parked = ParkFrame(conn, std::move(frame));
    if (!parked.ok()) {
      // A session violation: the stream is still aligned, but the peer is
      // not speaking the protocol, so it gets the same deferred error and
      // close as a framing error.
      protocol_errors_metric_->Increment();
      conn->framing_error = parked;
      conn->read_paused = true;
      break;
    }
  }
}

void RpcServer::SettleFramingError(Conn* conn) {
  if (conn->framing_error.ok() || conn->close_after_flush) return;
  if (conn->inflight != 0 || !conn->parked.empty()) return;
  std::string error;
  AppendError(conn->framing_error, &error);
  conn->outbox.Append(FrameBuf::Wrap(std::move(error)));
  requests_served_metric_->Increment();
  conn->close_after_flush = true;
}

Status RpcServer::ParkFrame(Conn* conn, Frame frame) {
  if (!conn->hello_done) {
    // The opening hello is answered inline by the loop: it is the first
    // frame, so nothing is owed ahead of its reply.
    if (frame.tag != MessageTag::kHello) {
      return Status::FailedPrecondition(
          StrFormat("the first frame must be a hello, not %s",
                    std::string(MessageTagName(frame.tag)).c_str()));
    }
    std::string reply;
    MAGICRECS_RETURN_IF_ERROR(HandleHello(frame, &reply));
    conn->hello_done = true;
    conn->outbox.Append(FrameBuf::Wrap(std::move(reply)));
    requests_served_metric_->Increment();
    return Status::OK();
  }
  if (frame.tag != MessageTag::kMuxRequest) {
    return Status::FailedPrecondition(StrFormat(
        "a %s frame after the hello; requests travel in mux envelopes",
        std::string(MessageTagName(frame.tag)).c_str()));
  }
  Parked parked;
  // Only the inner tag is peeked here, for scheduling; the full envelope
  // decode — and its error policy — lives in HandleMuxEnvelope on the
  // worker. A payload too short to hold an inner tag is parked anyway and
  // answered with that error reply.
  if (frame.payload.size() > 8) {
    parked.inner_tag =
        static_cast<MessageTag>(static_cast<uint8_t>(frame.payload[8]));
  }
  parked.frame = std::move(frame);
  conn->parked.push_back(std::move(parked));
  return Status::OK();
}

void RpcServer::TryDispatch(Conn* conn) {
  const size_t cap = options_.max_inflight_per_conn;
  for (auto it = conn->parked.begin();
       it != conn->parked.end() && conn->inflight < cap;) {
    const bool order_sensitive = IsOrderSensitive(it->inner_tag);
    if (order_sensitive && conn->serial_busy) {
      // The first blocked order-sensitive request fences the ones behind
      // it; order-free reads may still overtake below.
      ++it;
      continue;
    }
    // A publish-batch takes every publish-batch parked directly behind it
    // into its run, each counting against the cap. Anything else runs
    // alone: a drain, checkpoint or replica op may block for long, and
    // acks held behind it could trip the peer's receive timeout.
    auto end = std::next(it);
    if (it->inner_tag == MessageTag::kPublishBatch) {
      while (end != conn->parked.end() &&
             end->inner_tag == MessageTag::kPublishBatch &&
             conn->inflight + static_cast<size_t>(end - it) < cap) {
        ++end;
      }
    }
    std::vector<Frame> run;
    run.reserve(static_cast<size_t>(end - it));
    for (auto p = it; p != end; ++p) run.push_back(std::move(p->frame));
    it = conn->parked.erase(it, end);
    if (order_sensitive) conn->serial_busy = true;
    Dispatch(conn, std::move(run), order_sensitive);
  }
}

void RpcServer::Dispatch(Conn* conn, std::vector<Frame> run,
                         bool order_sensitive) {
  conn->inflight += run.size();
  pool_->Submit([this, conn_id = conn->id, order_sensitive,
                 run = std::move(run)] {
    // Each frame is served on its own — dedup, trace stamps, slow-request
    // timing and error replies stay per request — but the run hands the
    // loop one completion and one wake.
    Completion completion;
    completion.conn_id = conn_id;
    completion.requests = run.size();
    completion.order_sensitive = order_sensitive;
    for (const Frame& frame : run) {
      FrameBuf reply;
      HandleMuxEnvelope(frame, &reply);
      completion.buf.Append(std::move(reply));
    }
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(completion));
    }
    Wake();
  });
}

void RpcServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-request
    Conn* conn = it->second.get();
    conn->inflight -= completion.requests;
    if (completion.order_sensitive) conn->serial_busy = false;
    conn->outbox.Append(std::move(completion.buf));
    requests_served_metric_->Increment(completion.requests);
    // Room freed: resume a paused read (the assembler may already hold the
    // next frames) and dispatch whatever became eligible. A connection
    // paused by a framing error never resumes — it drains and severs.
    if (conn->read_paused && conn->framing_error.ok() &&
        conn->parked.size() + conn->inflight <
            options_.max_inflight_per_conn) {
      conn->read_paused = false;
      ParkFrames(conn);
      ReadReady(conn);
      if (conns_.find(completion.conn_id) == conns_.end()) continue;
    } else {
      TryDispatch(conn);
      SettleFramingError(conn);
    }
    if (!FlushOutbox(conn)) continue;
    (void)MaybeClose(conn);
  }
}

bool RpcServer::FlushOutbox(Conn* conn) {
  // Scatter/gather flush with partial-write carry: FillIov exposes the
  // unsent segments, the kernel takes what fits, Advance moves the cursor.
  // No compaction memmoves — a deep backlog costs O(bytes) total.
  while (!conn->outbox.empty()) {
    struct iovec iov[kMaxIovPerWritev];
    const int iovcnt = conn->outbox.FillIov(iov, kMaxIovPerWritev);
    Result<IoChunk> chunk = conn->socket.WritevChunk(iov, iovcnt);
    if (!chunk.ok()) {
      DestroyConn(conn);
      return false;
    }
    writev_calls_metric_->Increment();
    if (chunk->bytes > 0) {
      egress_bytes_metric_->Increment(chunk->bytes);
      const size_t frames = conn->outbox.Advance(chunk->bytes);
      frames_per_writev_metric_->Record(static_cast<int64_t>(frames));
    }
    if (chunk->would_block) {
      partial_writes_metric_->Increment();
      break;
    }
  }
  UpdateInterest(conn);
  return true;
}

bool RpcServer::MaybeClose(Conn* conn) {
  const bool flushed = conn->outbox.empty();
  if (conn->close_after_flush && flushed) {
    DestroyConn(conn);
    return false;
  }
  const bool quiet = conn->inflight == 0 && conn->parked.empty() &&
                     (conn->assembler.buffered() == 0 || conn->drop_residue);
  if (conn->eof_seen && quiet && flushed) {
    DestroyConn(conn);
    return false;
  }
  return true;
}

Status RpcServer::HandleHello(const Frame& request, std::string* response) {
  uint32_t peer_version = 0;
  uint32_t wanted = 0;
  MAGICRECS_RETURN_IF_ERROR(
      DecodeHello(request.payload, &peer_version, &wanted));
  if (peer_version != kProtocolVersion) {
    return Status::FailedPrecondition(
        StrFormat("hello names protocol version %u; this server speaks %u",
                  peer_version, kProtocolVersion));
  }
  if ((wanted & kFeatureMux) == 0) {
    return Status::FailedPrecondition("hello must ask for mux");
  }
  mux_connections_metric_->Increment();
  AppendHelloReply(kFeatureMux | kFeatureTrace,
                   static_cast<uint32_t>(options_.max_inflight_per_conn),
                   placement_, response);
  return Status::OK();
}

void RpcServer::HandleMuxEnvelope(const Frame& envelope, FrameBuf* response) {
  uint64_t request_id = 0;
  Frame request;
  const Status decoded =
      DecodeMuxRequest(envelope.payload, &request_id, &request);
  if (!decoded.ok()) {
    // The envelope itself was well-framed; only its payload is bad.
    protocol_errors_metric_->Increment();
    std::string error;
    AppendError(decoded, &error);
    *response = FrameBuf::Wrap(std::move(error));
    return;
  }

  // A case that writes its own reply frames leaves `reply` non-empty (a
  // take shares its held block instead); the rest set `status` and get an
  // ack or an error below.
  const Stopwatch timer;
  const std::string_view payload = request.payload;
  std::string reply;
  FrameBuf::Block held;
  Status status;
  switch (request.tag) {
    case MessageTag::kPublishBatch: {
      std::vector<EdgeEvent> events;
      uint64_t batch_sequence = 0;
      TraceContext trace;
      status = DecodePublishBatch(payload, &events, &batch_sequence, &trace);
      if (status.ok() && batch_sequence == 0) {
        status = Status::InvalidArgument(
            "publish-batch lacks its batch sequence");
      }
      if (!status.ok()) break;
      if (trace.active()) {
        trace.Stamp(TraceStage::kDaemonDequeue, stamp_party_,
                    SystemClock::Default()->Now());
      }
      // Every batch is idempotent: a replayed copy of a frame this server
      // already APPLIED (possibly on another connection) is acked without
      // applying it twice. A re-send racing the original's in-flight apply
      // waits for its outcome inside BeginBatch — an ack always means some
      // copy of the batch landed. The duplicate's ack carries no trace: the
      // original's did, and a second set of stamps for one apply would
      // double-count the stage.
      if (BeginBatch(batch_sequence)) {
        duplicate_batches_metric_->Increment();
        break;  // status is OK: ack the duplicate
      }
      status = transport_->PublishBatch(events);
      FinishBatch(batch_sequence, status.ok());
      // A threaded transport returns once the batch is queued for its window
      // thread, so this stamp marks the handoff, not the apply.
      if (status.ok() && trace.active()) {
        trace.Stamp(TraceStage::kDetectorApply, stamp_party_,
                    SystemClock::Default()->Now());
        AppendAck(&reply, &trace);  // trace in, trace out
      }
      break;
    }
    case MessageTag::kTakeRecommendations: {
      // Acknowledged, not destructive: what this reply carries stays held
      // until the broker's next take names its id, so a reply that is lost
      // or never merged is sent again (see "Acknowledged takes").
      Result<FrameBuf::Block> taken = Take(payload);
      status = taken.status();
      if (taken.ok()) held = std::move(taken).value();
      break;
    }
    case MessageTag::kDrain:
      status = transport_->Drain();
      break;
    case MessageTag::kCheckpoint: {
      Timestamp created_at = 0;
      status = DecodeCheckpoint(payload, &created_at);
      if (status.ok()) status = transport_->Checkpoint(created_at);
      break;
    }
    case MessageTag::kKillReplica:
    case MessageTag::kRecoverReplica: {
      uint32_t partition = 0;
      uint32_t replica = 0;
      status = DecodeReplicaOp(payload, &partition, &replica);
      if (status.ok()) {
        status = request.tag == MessageTag::kKillReplica
                     ? transport_->KillReplica(partition, replica)
                     : transport_->RecoverReplica(partition, replica);
      }
      break;
    }
    case MessageTag::kStatsText: {
      // The registry text exposition.
      Result<std::string> text = transport_->GetStatsText();
      status = text.status();
      if (text.ok()) AppendStatsTextReply(*text, &reply);
      break;
    }
    case MessageTag::kPing:
      break;
    default:
      // Unknown or response-range tag: the frame itself was well-formed, so
      // the stream is still aligned — answer and keep serving.
      protocol_errors_metric_->Increment();
      status = Status::Unimplemented(
          StrFormat("unknown message tag 0x%02x",
                    static_cast<unsigned>(static_cast<uint8_t>(request.tag))));
      break;
  }
  if (reply.empty() && held == nullptr) {
    if (status.ok()) {
      AppendAck(&reply);
    } else {
      AppendError(status, &reply);
    }
  }

  const int64_t elapsed_us = timer.ElapsedMicros();
  if (options_.slow_request_us > 0 && elapsed_us >= options_.slow_request_us) {
    slow_requests_metric_->Increment();
    const std::string_view tag = MessageTagName(request.tag);
    std::fprintf(stderr,
                 "[magicrecs] slow request on %s: tag=%.*s took %lldus "
                 "(threshold %lldus)\n",
                 address_.c_str(), static_cast<int>(tag.size()), tag.data(),
                 static_cast<long long>(elapsed_us),
                 static_cast<long long>(options_.slow_request_us));
  }

  // The reply frames are encoded once; each kMuxResponse envelope slices
  // its body out of that block instead of copying it — the server-side
  // half of the zero-copy egress path.
  Result<FrameBuf> wrapped = WrapMuxResponsesShared(
      request_id,
      held != nullptr ? held : FrameBuf::MakeBlock(std::move(reply)));
  if (!wrapped.ok()) {
    std::string error;
    AppendError(wrapped.status(), &error);
    *response = FrameBuf::Wrap(std::move(error));
    return;
  }
  *response = std::move(wrapped).value();
}

Result<FrameBuf::Block> RpcServer::Take(std::string_view payload) {
  uint64_t broker = 0;
  std::vector<TakeAck> acks;
  MAGICRECS_RETURN_IF_ERROR(
      DecodeTakeRecommendations(payload, &broker, &acks));
  if (broker == 0) {
    return Status::InvalidArgument("take-recommendations lacks its broker id");
  }
  uint64_t ack = 0;  // no entry for this server: nothing was merged
  for (const TakeAck& entry : acks) {
    if (entry.partition == placement_.partition) ack = entry.take;
  }
  std::lock_guard<std::mutex> lock(take_mu_);
  auto held = held_.find(broker);
  if (held != held_.end() && ack == held->second.take) {
    held->second.frames.reset();
    held->second.count = 0;
  }
  // The held reply is kept encoded, the bytes the peer was sent: only a
  // carry, which the broker asks for after a failure, decodes it again.
  std::vector<Recommendation> recs;
  if (held != held_.end() && held->second.count > 0) {
    FrameAssembler frames;
    frames.Append(held->second.frames->data(), held->second.frames->size());
    Frame frame;
    bool ready = true;
    bool more = true;
    while (more) {
      MAGICRECS_RETURN_IF_ERROR(frames.Next(&frame, &ready));
      if (!ready) return Status::Internal("held reply ends mid-frame");
      MAGICRECS_RETURN_IF_ERROR(
          DecodeRecommendationsReply(frame.payload, &recs, &more));
    }
  }
  // A failed take leaves every held reply and its id as they are.
  MAGICRECS_ASSIGN_OR_RETURN(std::vector<Recommendation> fresh,
                             transport_->TakeRecommendations());
  if (held == held_.end()) {
    if (held_.size() >= kMaxHeldReplies) {
      const auto oldest = std::max_element(
          held_.begin(), held_.end(), [this](const auto& a, const auto& b) {
            return next_take_ - a.second.take < next_take_ - b.second.take;
          });
      carry_dropped_metric_->Increment(oldest->second.count);
      held_.erase(oldest);
    }
    held = held_.emplace(broker, HeldReply{}).first;
  }
  if (recs.size() > kMaxCarriedRecommendations) {
    carry_dropped_metric_->Increment(recs.size() - kMaxCarriedRecommendations);
    recs.resize(kMaxCarriedRecommendations);
  }
  if (recs.empty()) {
    recs = std::move(fresh);
  } else {
    recs.insert(recs.end(), std::make_move_iterator(fresh.begin()),
                std::make_move_iterator(fresh.end()));
  }
  if (++next_take_ == 0) ++next_take_;  // 0 is the "nothing merged" ack
  // A large gather streams as several bounded frames (one request, N
  // ordered replies) so no reply can hit the frame-size cap.
  std::string reply;
  AppendRecommendationsReplyChunked(recs, kRecommendationsChunkBytes, &reply,
                                    next_take_);
  held->second = {FrameBuf::MakeBlock(std::move(reply)), recs.size(),
                  next_take_};
  return held->second.frames;
}

bool RpcServer::BeginBatch(uint64_t sequence) {
  std::unique_lock<std::mutex> lock(dedup_mu_);
  while (true) {
    if (seen_batch_sequences_.contains(sequence)) return true;
    const auto it = inflight_batches_.find(sequence);
    if (it == inflight_batches_.end()) {
      inflight_batches_.emplace(sequence,
                                std::make_shared<InflightBatch>());
      return false;
    }
    // The original copy of this sequence is mid-apply on another
    // connection. Waiting (rather than acking now) keeps the ack honest:
    // if that apply fails, this copy wakes, claims the sequence, and
    // applies the batch itself. Bounded by the original's apply; the
    // replaying broker's recv timeout covers a pathological stall. The
    // outcome is read from the shared record, not the window — a success
    // the window has already evicted must still suppress this copy.
    const std::shared_ptr<InflightBatch> state = it->second;
    dedup_cv_.wait(lock, [&] { return state->resolved; });
    if (state->applied) return true;
    // Failed: the record is gone from the map (FinishBatch erased it), so
    // one waiter's retry claims the sequence; the rest wait on that
    // fresh attempt.
  }
}

void RpcServer::FinishBatch(uint64_t sequence, bool applied) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  const auto it = inflight_batches_.find(sequence);
  if (it != inflight_batches_.end()) {
    it->second->resolved = true;
    it->second->applied = applied;
    inflight_batches_.erase(it);  // waiters hold their own shared_ptr
  }
  // A failed apply leaves no trace: the events never landed, so a broker
  // replay of the same frame must be applied, not dup-acked — recording
  // the sequence anyway would turn the failure into silent event loss
  // reported as success.
  if (applied) {
    seen_batch_sequences_.insert(sequence);
    seen_batch_order_.push_back(sequence);
    while (seen_batch_order_.size() > kPublishDedupWindow) {
      seen_batch_sequences_.erase(seen_batch_order_.front());
      seen_batch_order_.pop_front();
    }
  }
  dedup_cv_.notify_all();
}

}  // namespace magicrecs::net
