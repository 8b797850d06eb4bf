#include "net/mux_connection.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "net/frame_io.h"
#include "util/str_format.h"
#include "util/trace.h"

namespace magicrecs::net {
namespace {

/// Monotonic microseconds, for slow-call accounting only (never on the
/// wire — wall-clock trace stamps come from SystemClock).
int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<std::unique_ptr<MuxConnection>> MuxConnection::Dial(
    const std::string& host, uint16_t port,
    const MuxConnectionOptions& options) {
  std::unique_ptr<MuxConnection> conn(new MuxConnection());
  conn->options_ = options;
  MAGICRECS_ASSIGN_OR_RETURN(
      conn->socket_,
      TcpSocket::Connect(host, port, options.connect_timeout_ms));
  MAGICRECS_RETURN_IF_ERROR(conn->socket_.SetNoDelay(true));
  // The reply read is bounded by hello_timeout_ms (connect_timeout_ms only
  // bounds the TCP dial): a wedged daemon behind a live kernel must fail
  // the dial, not hang it.
  if (options.hello_timeout_ms > 0) {
    MAGICRECS_RETURN_IF_ERROR(
        conn->socket_.SetRecvTimeout(options.hello_timeout_ms));
  }
  std::string hello;
  AppendHello(kFeatureMux | kFeatureTrace, &hello);
  MAGICRECS_RETURN_IF_ERROR(WriteFrames(&conn->socket_, hello));
  Frame reply;
  MAGICRECS_RETURN_IF_ERROR(ReadFrame(&conn->socket_, &reply));
  if (options.hello_timeout_ms > 0) {
    // The reader thread's waits are deadline-based; the socket itself goes
    // back to blocking reads.
    MAGICRECS_RETURN_IF_ERROR(conn->socket_.SetRecvTimeout(0));
  }
  if (reply.tag != MessageTag::kHelloReply) {
    const std::string answer =
        reply.tag == MessageTag::kError
            ? DecodeError(reply.payload).ToString()
            : std::string(MessageTagName(reply.tag));
    return Status::FailedPrecondition(StrFormat(
        "daemon did not negotiate mux: it answered hello with %s",
        answer.c_str()));
  }
  uint32_t peer_version = 0;
  uint32_t features = 0;
  uint32_t max_inflight = 0;
  MAGICRECS_RETURN_IF_ERROR(DecodeHelloReply(reply.payload, &peer_version,
                                             &features, &max_inflight));
  if (peer_version != kProtocolVersion) {
    return Status::FailedPrecondition(StrFormat(
        "daemon speaks protocol version %u; this client speaks %u",
        peer_version, kProtocolVersion));
  }
  if ((features & kFeatureMux) == 0) {
    return Status::FailedPrecondition(
        "daemon did not negotiate mux: its hello reply lacks the mux bit");
  }
  conn->server_max_inflight_ = max_inflight;
  conn->reader_ = std::thread([c = conn.get()] { c->ReaderLoop(); });
  return conn;
}

MuxConnection::~MuxConnection() {
  Shutdown();
  if (reader_.joinable()) reader_.join();
}

bool MuxConnection::broken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

void MuxConnection::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!broken_) {
      broken_ = true;
      broken_status_ = Status::FailedPrecondition("connection shut down");
      FailAllLocked(Status::Unavailable("connection shut down"));
    }
  }
  socket_.Shutdown();  // unblocks the reader; it exits on the error
}

void MuxConnection::FailAllLocked(const Status& status) {
  broken_ = true;
  if (broken_status_.ok()) broken_status_ = status;
  // Unsent frames are for calls that are all failing here; drop the block
  // references. An active writer clears the chain itself when it observes
  // broken_ — its captured iovecs must stay pinned until then.
  if (!writer_active_) outbox_.Clear();
  for (auto& [id, call] : pending_) {
    if (!call->done) {
      call->status = status;
      call->done = true;
    }
  }
  pending_.clear();
  cv_.notify_all();
}

void MuxConnection::ReaderLoop() {
  while (true) {
    Frame frame;
    bool clean_eof = false;
    const Status read = ReadFrame(&socket_, &frame, &clean_eof);
    if (!read.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      FailAllLocked(read);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return;  // shut down while we were reading
    if (frame.tag != MessageTag::kMuxResponse) {
      // The only bare frame a muxed server sends is the framing-error
      // kError that precedes a sever; anything else is protocol
      // corruption. Either way the session is over.
      FailAllLocked(frame.tag == MessageTag::kError
                        ? DecodeError(frame.payload)
                        : Status::Internal(StrFormat(
                              "bare %s frame on a multiplexed session",
                              std::string(MessageTagName(frame.tag))
                                  .c_str())));
      return;
    }
    uint64_t request_id = 0;
    bool last = false;
    Frame inner;
    const Status decoded =
        DecodeMuxResponse(frame.payload, &request_id, &last, &inner);
    if (!decoded.ok()) {
      FailAllLocked(decoded);
      return;
    }
    const auto it = pending_.find(request_id);
    if (it == pending_.end()) continue;  // abandoned call: discard
    it->second->frames.push_back(std::move(inner));
    if (last) {
      it->second->done = true;
      pending_.erase(it);
      cv_.notify_all();
    }
  }
}

Result<MuxConnection::CallHandle> MuxConnection::Start(
    const std::string& framed_request, int cap_wait_ms) {
  // One copy into a shared block; the FrameBuf path shares it from there.
  return Start(FrameBuf::Wrap(framed_request), cap_wait_ms);
}

Result<MuxConnection::CallHandle> MuxConnection::Start(
    FrameBuf framed_request, int cap_wait_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  // Honor the server's advertised in-flight cap: waiting here is the
  // client half of the reactor's backpressure. The wait is bounded: a
  // daemon that stops answering stops freeing slots, and every timeout
  // that could notice lives in Await, which a hung Start never reaches.
  if (server_max_inflight_ > 0) {
    const auto slot_free = [&] {
      return broken_ || pending_.size() < server_max_inflight_;
    };
    if (cap_wait_ms > 0) {
      if (!cv_.wait_for(lock, std::chrono::milliseconds(cap_wait_ms),
                        slot_free)) {
        return Status::Unavailable(StrFormat(
            "no in-flight slot freed in %dms (%zu of %u outstanding)",
            cap_wait_ms, pending_.size(), server_max_inflight_));
      }
    } else {
      cv_.wait(lock, slot_free);
    }
  }
  if (broken_) return broken_status_;
  CallHandle call = std::make_shared<Call>();
  call->id = next_id_++;
  if (options_.slow_call_us > 0) call->started_at_us = SteadyNowMicros();
  // Registration and outbox enqueue happen in the SAME mu_ critical
  // section, so registration order == wire order: order-sensitive
  // requests from one caller reach the daemon in the order they started.
  pending_.emplace(call->id, call);
  outbox_.Append(WrapMuxRequestShared(call->id, framed_request));
  // From here a broken connection fails the call at Await, with the reply
  // frames that arrived first (a peer may answer and hang up mid-write).
  FlushOutboxLocked(lock);
  return call;
}

void MuxConnection::FlushOutboxLocked(std::unique_lock<std::mutex>& lock) {
  if (writer_active_) {
    // Another thread is draining the chain; it will carry these frames in
    // order. If its write fails, FailAllLocked fails this call too — the
    // error surfaces at Await.
    return;
  }
  writer_active_ = true;
  while (true) {
    if (broken_) {
      outbox_.Clear();
      break;
    }
    if (outbox_.empty()) break;
    struct iovec iov[kMaxIovPerWritev];
    const int iovcnt = outbox_.FillIov(iov, kMaxIovPerWritev);
    lock.unlock();
    // The blocks behind these iovecs are pinned by outbox_, which only
    // this (sole) writer advances; concurrent Starts may Append, and a
    // deque push_back leaves existing elements in place.
    Result<IoChunk> chunk = socket_.WritevChunk(iov, iovcnt);
    if (chunk.ok() && chunk->bytes == 0 && chunk->would_block) {
      // Socket buffer full mid-jumbo-frame: wait for room with mu_
      // RELEASED, bounded so a Shutdown() (which severs the socket and
      // wakes the poll) is noticed promptly either way.
      (void)socket_.PollWritable(100);
    }
    lock.lock();
    if (!chunk.ok()) {
      writer_active_ = false;
      outbox_.Clear();
      FailAllLocked(chunk.status());
      return;
    }
    if (chunk->bytes > 0) outbox_.Advance(chunk->bytes);
  }
  writer_active_ = false;
}

Status MuxConnection::Await(const CallHandle& call, int timeout_ms,
                           std::vector<Frame>* frames) {
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout_ms <= 0) {
    cv_.wait(lock, [&] { return call->done; });
  } else {
    // The deadline bounds SILENCE, not total call duration: every reply
    // frame that arrives extends it, so a long chunked gather that keeps
    // streaming never times out mid-delivery — the semantics of a per-read
    // SO_RCVTIMEO.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    size_t progress = call->frames.size();
    bool timed = false;
    while (!call->done && !timed) {
      if (cv_.wait_until(lock, deadline, [&] {
            return call->done || call->frames.size() != progress;
          })) {
        progress = call->frames.size();
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(timeout_ms);
      } else {
        timed = true;
      }
    }
    if (timed) {
      // Timed out. Hand back whatever arrived — a gather's partial share
      // is rescuable — then abandon the id.
      const Status timeout = Status::Unavailable(StrFormat(
          "call timed out after %dms (%zu reply frames received)",
          timeout_ms, call->frames.size()));
      *frames = std::move(call->frames);
      call->frames.clear();
      call->status = timeout;
      call->done = true;
      pending_.erase(call->id);  // late frames will be discarded
      cv_.notify_all();          // a Start blocked at the cap may proceed
      return timeout;
    }
  }
  *frames = std::move(call->frames);
  call->frames.clear();
  MaybeLogSlowCall(*call, *frames);
  return call->status;
}

void MuxConnection::MaybeLogSlowCall(const Call& call,
                                     const std::vector<Frame>& frames) const {
  if (options_.slow_call_us <= 0 || call.started_at_us == 0) return;
  const int64_t elapsed_us = SteadyNowMicros() - call.started_at_us;
  if (elapsed_us < options_.slow_call_us) return;
  // When the slow reply is an ack echoing a trace tail, print the
  // per-stage breakdown with it — the whole point of carrying stamps.
  std::string breakdown;
  if (frames.size() == 1 && frames.front().tag == MessageTag::kAck &&
      !frames.front().payload.empty()) {
    TraceContext trace;
    if (DecodeAck(frames.front().payload, &trace).ok() && trace.active()) {
      breakdown = " " + trace.ToString();
    }
  }
  std::fprintf(stderr,
               "[magicrecs] slow call id=%llu took %lldus (threshold "
               "%lldus)%s\n",
               static_cast<unsigned long long>(call.id),
               static_cast<long long>(elapsed_us),
               static_cast<long long>(options_.slow_call_us),
               breakdown.c_str());
}

Status MuxConnection::CallOne(const std::string& framed_request,
                              int timeout_ms, std::vector<Frame>* frames) {
  MAGICRECS_ASSIGN_OR_RETURN(CallHandle call,
                             Start(framed_request, timeout_ms));
  return Await(call, timeout_ms, frames);
}

Status MuxConnection::CallOne(FrameBuf framed_request, int timeout_ms,
                              std::vector<Frame>* frames) {
  MAGICRECS_ASSIGN_OR_RETURN(
      CallHandle call, Start(std::move(framed_request), timeout_ms));
  return Await(call, timeout_ms, frames);
}

}  // namespace magicrecs::net
