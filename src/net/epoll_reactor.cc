#include "net/epoll_reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <utility>

#include "net/rpc_server.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs::net {
namespace {

constexpr uint64_t kListenerToken = 0;
constexpr uint64_t kWakeToken = 1;
constexpr size_t kReadChunkBytes = 64u << 10;

}  // namespace

EpollReactor::EpollReactor(RpcServer* server) : server_(server) {}

EpollReactor::~EpollReactor() { Stop(); }

Status EpollReactor::Start() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(
        StrFormat("epoll_create1: %s", std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::Internal(StrFormat("eventfd: %s", std::strerror(errno)));
  }
  MAGICRECS_RETURN_IF_ERROR(server_->listener_.SetNonBlocking(true));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->listener_.fd(), &ev) !=
      0) {
    return Status::Internal(
        StrFormat("epoll_ctl(listener): %s", std::strerror(errno)));
  }
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(eventfd): %s", std::strerror(errno)));
  }

  pool_ = std::make_unique<ThreadPool>(server_->options_.worker_threads);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EpollReactor::Stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) thread_.join();
  // Workers may still be running handlers; their completions land in the
  // (now unread) queue and their Wake() hits a still-open eventfd. The
  // pool's destructor waits them out BEFORE the fds close.
  pool_.reset();
  for (auto& [id, conn] : conns_) {
    server_->connections_open_metric_->Add(-1);
    (void)id;
    (void)conn;  // sockets close with the map
  }
  conns_.clear();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void EpollReactor::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  ssize_t r;
  do {
    r = ::write(wake_fd_, &one, sizeof(one));
  } while (r < 0 && errno == EINTR);
  // EAGAIN means the counter is already nonzero: the reactor will wake.
}

void EpollReactor::Run() {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
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
      if (stopping_.load(std::memory_order_acquire)) return;
    }
    if (accept_paused_ &&
        std::chrono::steady_clock::now() >= accept_resume_) {
      ResumeAccept();
    }
    DrainCompletions();
  }
}

void EpollReactor::PauseAccept() {
  // Transient accept failure (e.g. EMFILE under a connection flood): keep
  // serving the connections we have. The reactor must NOT sleep — it is
  // the only I/O thread — so the listener's interest is dropped and the
  // wait timeout above re-arms it after the backoff.
  epoll_event ev{};
  ev.events = 0;
  ev.data.u64 = kListenerToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, server_->listener_.fd(), &ev) ==
      0) {
    accept_paused_ = true;
    accept_resume_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(10);
  }
}

void EpollReactor::ResumeAccept() {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, server_->listener_.fd(), &ev) ==
      0) {
    accept_paused_ = false;
    AcceptReady();  // drain whatever queued during the pause
  }
}

void EpollReactor::AcceptReady() {
  while (!stopping_.load(std::memory_order_acquire)) {
    bool would_block = false;
    Result<TcpSocket> accepted =
        server_->listener_.AcceptNonBlocking(&would_block);
    if (!accepted.ok()) {
      if (accepted.status().IsAborted()) return;  // listener closed (Stop)
      PauseAccept();
      return;
    }
    if (would_block) return;
    server_->connections_accepted_metric_->Increment();
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
    server_->connections_open_metric_->Add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void EpollReactor::UpdateInterest(Conn* conn) {
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

void EpollReactor::DestroyConn(Conn* conn) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->socket.fd(), nullptr);
  server_->connections_open_metric_->Add(-1);
  conns_.erase(conn->id);  // closes the socket
}

void EpollReactor::HandleConnEvent(uint64_t id, uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  // EPOLLERR/EPOLLHUP report regardless of the registered interest mask.
  // When the read path cannot consume them (reads paused at the cap or
  // after a framing error, or EOF already seen) the peer is gone and
  // nothing owed can be delivered — destroy now, or the level-triggered
  // event would spin the reactor at 100% until the connection quiesced.
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 &&
      (conn->read_paused || conn->eof_seen)) {
    if (!conn->eof_seen) {
      server_->protocol_errors_metric_->Increment();
    }
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

void EpollReactor::ReadReady(Conn* conn) {
  char buf[kReadChunkBytes];
  while (!conn->read_paused && !conn->eof_seen && !conn->close_after_flush) {
    Result<IoChunk> chunk = conn->socket.ReadChunk(buf, sizeof(buf));
    if (!chunk.ok()) {
      // Reset or a genuine socket error: not an orderly end-of-session, so
      // it counts like any other mid-stream death.
      server_->protocol_errors_metric_->Increment();
      DestroyConn(conn);
      return;
    }
    if (chunk->would_block) break;
    if (chunk->eof) {
      conn->eof_seen = true;
      if (conn->assembler.mid_frame()) {
        // Peer hung up inside a frame (or left undecodable residue): the
        // truncated tail is unservable.
        server_->protocol_errors_metric_->Increment();
        conn->drop_residue = true;
      }
      break;
    }
    conn->assembler.Append(buf, chunk->bytes);
    DrainFrames(conn);
    // Count a partial read only when parsing genuinely stopped short of a
    // frame boundary: a cap stall (read_paused) leaves COMPLETE frames
    // buffered and already has its own counter.
    if (conn->assembler.mid_frame() && !conn->read_paused) {
      server_->partial_reads_metric_->Increment();
    }
  }
  UpdateInterest(conn);
}

void EpollReactor::DrainFrames(Conn* conn) {
  const size_t cap = server_->options_.max_inflight_per_conn;
  while (!conn->close_after_flush) {
    if (conn->parked.size() + conn->inflight >= cap) {
      if (!conn->read_paused) {
        conn->read_paused = true;
        server_->inflight_stalls_metric_->Increment();
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
      server_->protocol_errors_metric_->Increment();
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
      server_->protocol_errors_metric_->Increment();
      conn->framing_error = parked;
      conn->read_paused = true;
      break;
    }
  }
  TryDispatch(conn);
  SettleFramingError(conn);
}

void EpollReactor::SettleFramingError(Conn* conn) {
  if (conn->framing_error.ok() || conn->close_after_flush) return;
  if (conn->inflight != 0 || !conn->parked.empty()) return;
  std::string error;
  AppendError(conn->framing_error, &error);
  conn->outbox.Append(FrameBuf::Wrap(std::move(error)));
  server_->requests_served_metric_->Increment();
  conn->close_after_flush = true;
}

Status EpollReactor::ParkFrame(Conn* conn, Frame frame) {
  if (!conn->hello_done) {
    // The opening hello is answered inline by the reactor: it is the first
    // frame, so nothing is owed ahead of its reply.
    if (frame.tag != MessageTag::kHello) {
      return Status::FailedPrecondition(
          StrFormat("the first frame must be a hello, not %s",
                    std::string(MessageTagName(frame.tag)).c_str()));
    }
    std::string reply;
    MAGICRECS_RETURN_IF_ERROR(server_->HandleHello(frame, &reply));
    conn->hello_done = true;
    conn->outbox.Append(FrameBuf::Wrap(std::move(reply)));
    server_->requests_served_metric_->Increment();
    return Status::OK();
  }
  if (frame.tag != MessageTag::kMuxRequest) {
    return Status::FailedPrecondition(StrFormat(
        "a %s frame after the hello; requests travel in mux envelopes",
        std::string(MessageTagName(frame.tag)).c_str()));
  }
  Parked parked;
  // Only the inner tag is peeked here, for scheduling; the full envelope
  // decode — and its error policy — lives in RpcServer::HandleMuxEnvelope
  // on the worker. A payload too short to hold an inner tag is parked
  // anyway and answered with that error reply.
  parked.order_sensitive =
      frame.payload.size() > 8 &&
      IsOrderSensitive(static_cast<MessageTag>(
          static_cast<uint8_t>(frame.payload[8])));
  parked.frame = std::move(frame);
  conn->parked.push_back(std::move(parked));
  return Status::OK();
}

void EpollReactor::TryDispatch(Conn* conn) {
  const size_t cap = server_->options_.max_inflight_per_conn;
  bool serial_busy = conn->serial_busy;
  for (auto it = conn->parked.begin();
       it != conn->parked.end() && conn->inflight < cap;) {
    if (it->order_sensitive) {
      if (serial_busy) {
        // The first blocked order-sensitive request fences the ones behind
        // it; order-free reads may still overtake below.
        ++it;
        continue;
      }
      serial_busy = true;
    }
    Parked parked = std::move(*it);
    it = conn->parked.erase(it);
    Dispatch(conn, std::move(parked));
  }
  conn->serial_busy = serial_busy;
}

void EpollReactor::Dispatch(Conn* conn, Parked parked) {
  conn->inflight++;
  pool_->Submit([this, conn_id = conn->id, p = std::move(parked)]() mutable {
    Completion completion;
    completion.conn_id = conn_id;
    completion.order_sensitive = p.order_sensitive;
    server_->HandleMuxEnvelope(p.frame, &completion.buf);
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(completion));
    }
    Wake();
  });
}

void EpollReactor::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-request
    Conn* conn = it->second.get();
    conn->inflight--;
    if (completion.order_sensitive) conn->serial_busy = false;
    conn->outbox.Append(std::move(completion.buf));
    server_->requests_served_metric_->Increment();
    // Room freed: resume a paused read (the assembler may already hold the
    // next frames) and dispatch whatever became eligible. A connection
    // paused by a framing error never resumes — it drains and severs.
    if (conn->read_paused && conn->framing_error.ok() &&
        conn->parked.size() + conn->inflight <
            server_->options_.max_inflight_per_conn) {
      conn->read_paused = false;
      DrainFrames(conn);
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

bool EpollReactor::FlushOutbox(Conn* conn) {
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
    server_->writev_calls_metric_->Increment();
    if (chunk->bytes > 0) {
      server_->egress_bytes_metric_->Increment(chunk->bytes);
      const size_t frames = conn->outbox.Advance(chunk->bytes);
      server_->frames_per_writev_metric_->Record(
          static_cast<int64_t>(frames));
    }
    if (chunk->would_block) {
      server_->partial_writes_metric_->Increment();
      break;
    }
  }
  UpdateInterest(conn);
  return true;
}

bool EpollReactor::MaybeClose(Conn* conn) {
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

}  // namespace magicrecs::net
