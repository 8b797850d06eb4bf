#include "net/fanout_cluster.h"

#include <algorithm>
#include <optional>
#include <random>
#include <utility>

#include "util/clock.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs::net {
namespace {

Status UnexpectedReply(MessageTag got, MessageTag expected) {
  return Status::Internal(
      StrFormat("server replied %s where %s was expected",
                std::string(MessageTagName(got)).c_str(),
                std::string(MessageTagName(expected)).c_str()));
}

}  // namespace

std::string GatherReport::ToString() const {
  std::string out = StrFormat("%u/%u daemons answered", daemons_answered,
                              daemons_total);
  if (!missing_partitions.empty()) {
    out += ", missing partitions:";
    for (const uint32_t partition : missing_partitions) {
      out += partition == UINT32_MAX ? " all" : StrFormat(" %u", partition);
    }
  }
  return out;
}

std::string_view FanoutPolicyName(FanoutPolicy policy) {
  switch (policy) {
    case FanoutPolicy::kStrict: return "strict";
    case FanoutPolicy::kQuorum: return "quorum";
    case FanoutPolicy::kAuto: return "auto";
  }
  return "unknown";
}

Result<std::unique_ptr<FanoutCluster>> FanoutCluster::Connect(
    const FanoutClusterOptions& options) {
  if (options.endpoints.empty()) {
    return Status::InvalidArgument("fan-out cluster needs >= 1 endpoint");
  }
  if (options.gather_quorum > options.endpoints.size()) {
    return Status::InvalidArgument(StrFormat(
        "gather_quorum %u exceeds the %zu configured endpoints",
        options.gather_quorum, options.endpoints.size()));
  }
  // At 0 an open circuit would stay at 0 ms: the broker would redial a
  // dead daemon on every call and never score it unreachable.
  if (options.reconnect_backoff_ms < 1) {
    return Status::InvalidArgument("reconnect_backoff_ms must be >= 1");
  }
  if (options.max_reconnect_backoff_ms < options.reconnect_backoff_ms) {
    return Status::InvalidArgument(
        "max_reconnect_backoff_ms must be >= reconnect_backoff_ms");
  }
  // Only the monitor flips kAuto or writes the journal.
  if (options.health_interval_ms <= 0 &&
      (options.policy == FanoutPolicy::kAuto ||
       !options.event_journal_path.empty())) {
    return Status::InvalidArgument(
        "policy auto and event_journal_path need health_interval_ms > 0");
  }

  uint32_t group_size = options.group_size;
  const bool single_all_hosting =
      options.endpoints.size() == 1 &&
      options.endpoints[0].partition == FanoutEndpoint::kAllPartitions;
  if (!single_all_hosting) {
    // Explicit partition-group topology: every daemon names its partition
    // and together they cover 0..group_size-1 exactly once.
    if (group_size == 0) {
      group_size = static_cast<uint32_t>(options.endpoints.size());
    }
    if (options.endpoints.size() != group_size) {
      return Status::InvalidArgument(StrFormat(
          "a %u-partition group needs exactly %u endpoints, got %zu",
          group_size, group_size, options.endpoints.size()));
    }
    std::vector<bool> covered(group_size, false);
    for (const FanoutEndpoint& endpoint : options.endpoints) {
      if (endpoint.partition == FanoutEndpoint::kAllPartitions) {
        return Status::InvalidArgument(
            "an all-hosting endpoint cannot be mixed with partition-group "
            "endpoints");
      }
      if (endpoint.partition >= group_size) {
        return Status::InvalidArgument(
            StrFormat("endpoint partition %u out of range for a "
                      "%u-partition group",
                      endpoint.partition, group_size));
      }
      if (covered[endpoint.partition]) {
        return Status::InvalidArgument(StrFormat(
            "partition %u is hosted by two endpoints", endpoint.partition));
      }
      covered[endpoint.partition] = true;
    }
  }

  std::unique_ptr<FanoutCluster> cluster(new FanoutCluster(options));
  cluster->group_size_ = group_size;
  if (options.health_interval_ms > 0) cluster->StartHealthMonitor();
  return cluster;
}

FanoutCluster::FanoutCluster(const FanoutClusterOptions& options)
    : options_(options),
      degraded_gathers_(registry_.GetCounter("broker_degraded_gathers")),
      replayed_events_(registry_.GetCounter("broker_replayed_events")),
      replay_dropped_events_(
          registry_.GetCounter("broker_replay_dropped_events")),
      policy_flips_(registry_.GetCounter("broker_policy_flips")),
      shed_publishes_(registry_.GetCounter("broker_shed_publishes")) {
  if (options.policy != FanoutPolicy::kAuto) {  // kAuto starts strict
    active_policy_.store(options.policy, std::memory_order_relaxed);
  }
  registry_.GetGauge("broker_policy")
      ->Set(static_cast<int64_t>(active_policy()));
  // Batch sequences must be unique across broker incarnations, not just
  // within one: the daemons' dedup window is keyed by the raw u64 and
  // outlives any one broker's connections, so a counter restarting at 1
  // after a broker restart (or a second broker publishing to the same
  // daemons) would reuse sequences already in the window and have its
  // genuinely new batches acked without being applied — silent event loss
  // reported as success. A random 64-bit epoch per incarnation puts
  // distinct brokers in disjoint sequence ranges with overwhelming
  // probability (a window of W sequences collides with a fresh epoch with
  // probability ~W/2^64).
  std::random_device rd;
  uint64_t epoch =
      (static_cast<uint64_t>(rd()) << 32) | static_cast<uint64_t>(rd());
  if (epoch == 0) epoch = 1;  // 0 is the wire's "no sequence"
  next_batch_sequence_.store(epoch, std::memory_order_relaxed);
  // Trace ids get their own epoch for the same cross-incarnation reason
  // (two brokers' traces must not collide in a shared log).
  uint64_t trace_epoch =
      (static_cast<uint64_t>(rd()) << 32) | static_cast<uint64_t>(rd());
  if (trace_epoch == 0) trace_epoch = 1;  // 0 is the wire's "no trace"
  next_trace_id_.store(trace_epoch, std::memory_order_relaxed);
  // The take requests' broker id, random for the same reason: two brokers
  // taking from one daemon must never share the reply it holds.
  broker_id_ =
      (static_cast<uint64_t>(rd()) << 32) | static_cast<uint64_t>(rd());
  if (broker_id_ == 0) broker_id_ = 1;  // daemons refuse a take without one
  for (const FanoutEndpoint& endpoint : options.endpoints) {
    auto daemon = std::make_unique<Daemon>();
    daemon->endpoint = endpoint;
    daemon->party = HealthPartyName(
        endpoint.partition == FanoutEndpoint::kAllPartitions
            ? std::nullopt
            : std::optional<uint32_t>(endpoint.partition),
        endpoint.host, endpoint.port);
    const MetricLabels labels = {{"party", daemon->party}};
    daemon->gathers_missed =
        registry_.GetCounter("broker_gathers_missed", labels);
    daemon->gathers_missed_consecutive =
        registry_.GetGauge("broker_gathers_missed_consecutive", labels);
    daemon->gathers_missed_consecutive->Set(0);
    daemons_.push_back(std::move(daemon));
  }
}

uint64_t FanoutCluster::NextBatchSequence() {
  uint64_t sequence =
      next_batch_sequence_.fetch_add(1, std::memory_order_relaxed);
  while (sequence == 0) {  // wrapped onto the "no sequence": skip it
    sequence = next_batch_sequence_.fetch_add(1, std::memory_order_relaxed);
  }
  return sequence;
}

FanoutCluster::~FanoutCluster() {
  const Status s = Close();
  (void)s;  // destructor cannot propagate
}

Status FanoutCluster::TagError(const Daemon& daemon,
                               const Status& status) const {
  const FanoutEndpoint& e = daemon.endpoint;
  const std::string where =
      e.partition == FanoutEndpoint::kAllPartitions
          ? StrFormat("daemon %s:%u", e.host.c_str(), e.port)
          : StrFormat("daemon %s:%u (partition %u)", e.host.c_str(), e.port,
                      e.partition);
  return Status(status.code(),
                StrFormat("%s: %s", where.c_str(),
                          std::string(status.message()).c_str()));
}

void FanoutCluster::StartBackoffLocked(Daemon* daemon) {
  daemon->backoff_ms =
      daemon->backoff_ms == 0
          ? options_.reconnect_backoff_ms
          : std::min(daemon->backoff_ms * 2,
                     options_.max_reconnect_backoff_ms);
  daemon->next_attempt = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(daemon->backoff_ms);
}

Result<std::shared_ptr<MuxConnection>> FanoutCluster::AcquireConn(
    Daemon* daemon) {
  std::unique_lock<std::mutex> lock(daemon->mu);
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("fan-out cluster is closed");
    }
    if (daemon->conn != nullptr) {
      if (!daemon->conn->broken()) return daemon->conn;
      daemon->conn.reset();  // died while idle; fall through to redial
    }
    if (daemon->dialing) {
      // Another caller is mid-dial: share its outcome instead of racing a
      // second connection to the same daemon.
      daemon->cv.wait(lock);
      continue;
    }
    // Circuit breaker: inside the reconnect-backoff window fail fast
    // instead of sleeping — one dead daemon must not stall every broker
    // call (the healthy daemons are acquired in the same loop). The
    // first call after the window redials.
    if (daemon->next_attempt > std::chrono::steady_clock::now()) {
      return TagError(*daemon, Status::Unavailable("in reconnect backoff"));
    }
    daemon->dialing = true;
    lock.unlock();
    MuxConnectionOptions mopt;
    mopt.connect_timeout_ms = options_.connect_timeout_ms;
    // A host whose kernel accepts while the daemon is wedged must fail
    // the dial inside the reply-silence bound, not pin every caller
    // behind the dialing flag.
    mopt.hello_timeout_ms = options_.recv_timeout_ms;
    Result<std::unique_ptr<MuxConnection>> dialed =
        MuxConnection::Dial(daemon->endpoint.host, daemon->endpoint.port,
                            mopt);
    // A daemon that answers the hello but is placed elsewhere than its
    // endpoint says fails like a dial (dropping `dialed` severs it): it
    // must not get a single frame.
    const Status placed =
        dialed.ok()
            ? CheckPlacement(daemon->endpoint, (*dialed)->placement())
            : dialed.status();
    lock.lock();
    daemon->dialing = false;
    daemon->cv.notify_all();
    if (!placed.ok()) {
      StartBackoffLocked(daemon);
      return TagError(*daemon, placed);
    }
    if (closed_.load(std::memory_order_acquire)) {
      (*dialed)->Shutdown();
      return Status::FailedPrecondition("fan-out cluster is closed");
    }
    daemon->backoff_ms = 0;  // healthy again
    daemon->conn = std::shared_ptr<MuxConnection>(std::move(dialed).value());
    return daemon->conn;
  }
}

Status FanoutCluster::CheckPlacement(const FanoutEndpoint& endpoint,
                                     const Placement& placed) const {
  if (group_size_ > 0 && placed.group_size != group_size_) {
    return Status::FailedPrecondition(StrFormat(
        "daemon spans %u partitions, this broker expects a %u-partition "
        "group (check --partition-group)",
        placed.group_size, group_size_));
  }
  if (placed.salt != options_.partitioner_salt) {
    return Status::FailedPrecondition(StrFormat(
        "daemon partitioner salt %llu != broker salt %llu — placement would "
        "disagree (check --partitioner-salt)",
        static_cast<unsigned long long>(placed.salt),
        static_cast<unsigned long long>(options_.partitioner_salt)));
  }
  if (placed.partition == endpoint.partition) return Status::OK();
  if (endpoint.partition == FanoutEndpoint::kAllPartitions) {
    // A one-endpoint broker on a group member would gather one
    // partition's share and call it the whole cluster.
    return Status::FailedPrecondition(StrFormat(
        "daemon hosts only partition %u of a %u-partition group but this "
        "endpoint is wired as all-hosting (give the endpoint its "
        "partition, or drop the daemon's --partition-group/--partition-id)",
        placed.partition, placed.group_size));
  }
  // A daemon missing its --partition-group flags hosts EVERY partition and
  // would silently duplicate recommendations.
  const std::string hosted =
      placed.partition == Placement::kAllPartitions
          ? std::string("every partition")
          : StrFormat("partition %u", placed.partition);
  return Status::FailedPrecondition(StrFormat(
      "daemon hosts %s but this endpoint is wired as partition %u (swapped "
      "endpoints, or the daemon is missing --partition-group/"
      "--partition-id?)",
      hosted.c_str(), endpoint.partition));
}

void FanoutCluster::DropConn(Daemon* daemon,
                             const std::shared_ptr<MuxConnection>& conn) {
  if (conn == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(daemon->mu);
    // Only the FIRST observer of this connection's death opens (or
    // extends) the breaker window: every concurrent caller whose await
    // just failed lands here with the same dead connection, and counting
    // each as a fresh failure would double the backoff once per caller —
    // or worse, re-penalize a daemon a later caller already redialed
    // successfully (daemon->conn has moved on by then).
    if (daemon->conn == conn) {
      daemon->conn.reset();
      StartBackoffLocked(daemon);
    }
  }
  // Sever outside the lock: failing the other callers' in-flight awaits
  // takes the connection's own mutex.
  conn->Shutdown();
}

void FanoutCluster::FailLane(Slot* slot, const Status& status) {
  if (slot->status.ok()) slot->status = TagError(*slot->daemon, status);
  slot->poisoned = true;
  DropConn(slot->daemon, slot->conn);
}

size_t FanoutCluster::RequiredQuorum() const {
  const size_t n = daemons_.size();
  switch (active_policy_.load(std::memory_order_relaxed)) {
    case FanoutPolicy::kStrict: return n;
    case FanoutPolicy::kQuorum:
      return options_.gather_quorum == 0
                 ? n / 2 + 1
                 : static_cast<size_t>(options_.gather_quorum);
    case FanoutPolicy::kAuto: break;  // never active
  }
  return n;
}

Result<FanoutCluster::Daemon*> FanoutCluster::RouteToPartition(
    uint32_t partition) {
  Daemon* all_hosting = nullptr;
  for (const auto& daemon : daemons_) {
    if (daemon->endpoint.partition == partition) return daemon.get();
    if (daemon->endpoint.partition == FanoutEndpoint::kAllPartitions) {
      all_hosting = daemon.get();
    }
  }
  if (all_hosting == nullptr) {
    return Status::InvalidArgument(
        StrFormat("no daemon hosts partition %u", partition));
  }
  return all_hosting;
}

// --- broadcast plumbing ------------------------------------------------------

Result<std::shared_lock<std::shared_mutex>> FanoutCluster::Enter() {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  return lifecycle;
}

template <typename OnFrame>
void FanoutCluster::Exchange(std::span<Slot> slots,
                             std::span<const FrameBuf> frames,
                             MessageTag expected, const OnFrame& on_frame) {
  // Awaits the lane's oldest unanswered frame. Silence past
  // recv_timeout_ms, a transport failure or a wrong-kind reply fails the
  // lane; a server kError keeps it, since the session still answers.
  const auto reap = [&](Slot* slot) {
    const size_t f = slot->replied;
    const MuxConnection::CallHandle call =
        std::move(slot->window[f % kPublishWindowFrames]);
    std::vector<Frame> reply;
    Status classified =
        slot->conn->Await(call, options_.recv_timeout_ms, &reply);
    if (classified.ok()) {
      classified = ClassifyReply(slot, reply, expected);
    } else {
      FailLane(slot, classified);
    }
    if (slot->live()) slot->replied++;
    on_frame(slot, f, reply, classified);
  };
  // Queues every frame the lane's window has room for in one Start, so a
  // window fill is one write per lane. The window is kPublishWindowFrames,
  // or the daemon's in-flight cap when that is smaller: a fill then waits
  // at the cap only behind other callers' calls.
  std::vector<MuxConnection::CallHandle> started;
  const auto fill = [&](Slot* slot, size_t window) {
    const size_t room = window - (slot->started - slot->replied);
    const size_t n = std::min(room, frames.size() - slot->started);
    started.clear();
    const Status status = slot->conn->Start(frames.subspan(slot->started, n),
                                            options_.recv_timeout_ms, &started);
    for (MuxConnection::CallHandle& call : started) {
      slot->window[slot->started++ % kPublishWindowFrames] = std::move(call);
    }
    if (!status.ok()) FailLane(slot, status);
  };
  // The window counts this exchange only: AcquireLanes may already have
  // run a replay flush's exchange on the same slot.
  for (Slot& slot : slots) slot.started = slot.replied = 0;
  bool unsent = true;
  while (unsent) {
    unsent = false;
    for (Slot& slot : slots) {
      if (!slot.live() || slot.started == frames.size()) continue;
      const uint32_t cap = slot.conn->server_max_inflight();
      const size_t window =
          cap == 0 ? kPublishWindowFrames
                   : std::min<size_t>(kPublishWindowFrames, cap);
      if (slot.started - slot.replied == window) reap(&slot);
      if (!slot.live()) continue;
      fill(&slot, window);
      unsent |= slot.live() && slot.started < frames.size();
    }
  }
  for (Slot& slot : slots) {
    while (slot.live() && slot.replied < slot.started) reap(&slot);
  }
}

std::vector<FanoutCluster::Slot> FanoutCluster::AcquireLanes(Daemon* only) {
  std::vector<Slot> slots;
  slots.reserve(daemons_.size());
  for (const auto& daemon : daemons_) {
    if (only != nullptr && daemon.get() != only) continue;
    Slot& slot = slots.emplace_back();
    slot.daemon = daemon.get();
    Result<std::shared_ptr<MuxConnection>> conn = AcquireConn(daemon.get());
    if (conn.ok()) {
      slot.conn = std::move(conn).value();
      // A reachable daemon is first owed whatever a degraded policy parked
      // for it while it was away — replay preserves publish order. Frames
      // can also be owed AFTER kAuto's monitor flipped back to strict (the
      // flip-back gate requires empty buffers, but a racing publish can
      // park between the check and the flip), so any non-empty buffer
      // flushes regardless of the active policy.
      bool owed = false;
      {
        std::lock_guard<std::mutex> replay_lock(slot.daemon->replay_mu);
        owed = !slot.daemon->replay.empty();
      }
      if (degraded() || owed) FlushReplayOn(&slot);
    } else {
      slot.status = conn.status();
    }
  }
  return slots;
}

void FanoutCluster::FlushReplayOn(Slot* slot) {
  Daemon* daemon = slot->daemon;
  // replay_mu is held across the flush exchange so a concurrent caller
  // cannot interleave its own traffic between two replayed frames — every
  // broker call flushes (and therefore queues here) before sending its
  // own. Replies are reaped in order under the lock, so each answered
  // frame of the snapshot is the queue's front.
  std::lock_guard<std::mutex> lock(daemon->replay_mu);
  std::vector<FrameBuf> parked;
  parked.reserve(daemon->replay.size());
  for (const ReplayFrame& frame : daemon->replay) parked.push_back(frame.frame);
  Exchange(
      std::span(slot, 1), parked, MessageTag::kAck,
      [&](Slot* lane, size_t, const std::vector<Frame>&,
          const Status& classified) {
        // A failed lane keeps its unanswered frames parked for the next
        // attempt — consuming one here would lose its events without
        // counting them anywhere.
        if (!lane->live()) return;
        const size_t events = daemon->replay.front().events;
        if (classified.ok()) {
          replayed_events_->Increment(events);
        } else {
          // The daemon took the frame but rejected it; replaying it again
          // would just re-fail. Count the loss and surface the rejection.
          replay_dropped_events_->Increment(events);
          if (lane->server_error.ok()) lane->server_error = classified;
        }
        daemon->replay_events -= events;
        daemon->replay.pop_front();
      });
}

Status FanoutCluster::FirstError(const std::vector<Slot>& slots) const {
  for (const Slot& slot : slots) {
    if (!slot.status.ok()) return slot.status;
  }
  return Status::OK();
}

Status FanoutCluster::ClassifyReply(Slot* slot,
                                    const std::vector<Frame>& reply,
                                    MessageTag expected) {
  const auto odd =
      std::find_if(reply.begin(), reply.end(), [expected](const Frame& f) {
        return f.tag != expected;
      });
  if (odd == reply.end() && !reply.empty()) return Status::OK();
  if (odd != reply.end() && odd->tag == MessageTag::kError) {
    slot->daemon_error = DecodeError(odd->payload);
    const Status err = TagError(*slot->daemon, slot->daemon_error);
    if (slot->status.ok()) slot->status = err;
    return err;
  }
  FailLane(slot, UnexpectedReply(
                     odd == reply.end() ? MessageTag::kMuxResponse : odd->tag,
                     expected));
  return slot->status;
}

Status FanoutCluster::Broadcast(Daemon* only, const std::string& request,
                                MessageTag expected, Coverage coverage,
                                const ReplyStep& on_reply) {
  std::vector<Slot> slots = AcquireLanes(only);
  // Every lane's Start copies the FrameBuf — segment references onto the
  // same payload block, never the bytes.
  const FrameBuf framed = FrameBuf::Wrap(request);
  // Each lane's reply for the step pass, a failed lane's partial frames
  // too. A lane that never started keeps an empty one.
  std::vector<std::vector<Frame>> replies(slots.size());
  Exchange(slots, std::span(&framed, 1), expected,
           [&](Slot* slot, size_t, std::vector<Frame>& reply,
               const Status& classified) {
             slot->answered = classified.ok();
             replies[slot - slots.data()] = std::move(reply);
           });
  size_t answered = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    if (on_reply) {
      const Status stepped = on_reply(&slot, replies[i]);
      if (!stepped.ok()) {
        slot.answered = false;
        if (slot.status.ok()) slot.status = TagError(*slot.daemon, stepped);
      }
    }
    if (slot.answered) answered++;
  }

  // The coverage rule. Quorum counts lanes that answered THIS request: an
  // error carried over from a replay flush must not shrink the answering
  // set.
  const Status first = FirstError(slots);
  if (first.ok() || coverage == Coverage::kNone) return Status::OK();
  const size_t required =
      coverage == Coverage::kEvery ? slots.size() : RequiredQuorum();
  if (answered < required) return first;
  // Enough lanes answered, so the absent ones are tolerated — but not a
  // replay-flush rejection: a daemon took a replayed frame and REJECTED
  // it, so those parked events are permanently lost and were dropped from
  // the buffer. That loss must fail the observing call loudly — quorum
  // tolerance is for daemons that are absent, not for events that are
  // gone.
  for (const Slot& slot : slots) {
    if (!slot.server_error.ok()) return slot.server_error;
  }
  return Status::OK();
}

// --- ClusterTransport --------------------------------------------------------

void FanoutCluster::QueueUnsent(Slot* slot,
                                const std::vector<FrameBuf>& frames,
                                const std::vector<size_t>& frame_events) {
  // Only an unreachable lane parks frames: no connection at all (circuit
  // breaker / connect failure) or a transport failure mid-call. A healthy
  // lane whose server rejected a frame keeps that error — a rejection is
  // not an availability problem and must surface, not retry forever.
  if (slot->live()) return;
  size_t queue_events = 0;
  for (size_t f = slot->replied; f < frames.size(); ++f) {
    queue_events += frame_events[f];
  }
  if (queue_events == 0) return;
  Daemon* daemon = slot->daemon;
  std::lock_guard<std::mutex> lock(daemon->replay_mu);
  if (daemon->replay_events + queue_events > options_.replay_buffer_events) {
    replay_dropped_events_->Increment(queue_events);
    slot->status = TagError(
        *daemon,
        Status::ResourceExhausted(StrFormat(
            "replay buffer full (%zu events parked, %zu more would exceed "
            "the %zu-event bound): %zu events dropped",
            daemon->replay_events, queue_events,
            options_.replay_buffer_events, queue_events)));
    return;
  }
  for (size_t f = slot->replied; f < frames.size(); ++f) {
    daemon->replay.push_back(ReplayFrame{frames[f], frame_events[f]});
    daemon->replay_events += frame_events[f];
  }
  // Parked is success: the events will be replayed, in order, once the
  // daemon answers again. A server-side rejection still surfaces.
  slot->status = slot->server_error;
}

Status FanoutCluster::PublishBatch(std::span<const EdgeEvent> events) {
  if (events.empty()) return Status::OK();
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  // One policy snapshot steers this whole call: a concurrent kAuto
  // flip must not park some of its failed lanes and fail others.
  const bool entered_degraded = degraded();
  // Sampling decision for end-to-end tracing: 1 in trace_sample_every
  // publishes originates a TraceContext. Unsampled publishes never touch a
  // clock and their frames carry no trace tail.
  TraceContext trace;
  if (options_.trace_sample_every > 0 &&
      publish_count_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_sample_every ==
          0) {
    uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    while (id == 0) {  // wrapped onto the "no trace" marker: skip it
      id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    }
    trace.trace_id = id;
    trace.origin_us = SystemClock::Default()->Now();
  }

  // Encode once: the same chunked kPublishBatch frames stream to every
  // daemon (each partition ingests the full stream). Each frame becomes a
  // refcounted FrameBuf, so the N lanes (and all their pipeline slots and
  // the replay buffer) share ONE payload block per frame — fan-out costs
  // segment references, never a byte copy. Every frame carries a batch
  // sequence, so a replay or a stray duplicate is idempotent at the
  // daemon. A sampled publish additionally encodes a traced VARIANT of the
  // first frame for the lanes, while the replay buffer reuses the
  // canonical plain bytes (a replayed trace would stamp a long-finished
  // pipeline).
  std::vector<FrameBuf> frames;
  std::vector<size_t> frame_events;
  FrameBuf traced_first_frame;
  frames.reserve((events.size() + kPublishChunkEvents - 1) /
                 kPublishChunkEvents);
  frame_events.reserve(frames.capacity());
  for (size_t i = 0; i < events.size(); i += kPublishChunkEvents) {
    const size_t n = std::min(kPublishChunkEvents, events.size() - i);
    const uint64_t sequence = NextBatchSequence();
    std::string frame;
    AppendPublishBatch(events.subspan(i, n), &frame, sequence);
    if (i == 0 && trace.active()) {
      trace.Stamp(TraceStage::kBrokerEncode, kTracePartyBroker,
                  SystemClock::Default()->Now());
      std::string traced;
      AppendPublishBatch(events.subspan(i, n), &traced, sequence, &trace);
      traced_first_frame = FrameBuf::Wrap(std::move(traced));
    }
    frames.push_back(FrameBuf::Wrap(std::move(frame)));
    frame_events.push_back(n);
  }

  // The lanes send the traced variant; the replay buffer keeps `frames`.
  std::vector<FrameBuf> traced_frames;
  if (trace.active()) {
    traced_frames = frames;
    traced_frames.front() = std::move(traced_first_frame);
  }

  std::vector<Slot> slots = AcquireLanes(nullptr);
  // Admission: every frame of a lane unreachable now would park, so a
  // publish that lane's buffer cannot hold is refused whole, before any
  // daemon applies a frame of it. Refusing after the send would leave the
  // healthy daemons holding events the parked one never gets.
  if (entered_degraded) {
    for (const Slot& slot : slots) {
      if (slot.live()) continue;
      std::lock_guard<std::mutex> lock(slot.daemon->replay_mu);
      if (slot.daemon->replay_events + events.size() <=
          options_.replay_buffer_events) {
        continue;
      }
      shed_publishes_->Increment();
      return TagError(
          *slot.daemon,
          Status::ResourceExhausted(StrFormat(
              "replay buffer full (%zu events parked, %zu more would exceed "
              "the %zu-event bound): publish refused, no daemon received it",
              slot.daemon->replay_events, events.size(),
              options_.replay_buffer_events)));
    }
  }
  // The pipeline: every daemon chews on the same prefix of the stream
  // concurrently. (The session additionally honors the cap the daemon
  // advertised in its hello reply — MuxConnection::Start blocks there.)
  Exchange(
      slots, trace.active() ? traced_frames : frames, MessageTag::kAck,
      [&](Slot* slot, size_t, const std::vector<Frame>& reply,
          const Status& classified) {
        // A failed lane's unanswered frames park below (degraded) or fail
        // the publish (strict).
        if (!slot->live()) return;
        // A rejection answered THIS frame: the lane stays, and the first
        // one survives a queue-to-replay.
        if (!classified.ok()) {
          if (slot->server_error.ok()) slot->server_error = classified;
          return;
        }
        if (!trace.active()) return;
        // A traced frame's ack echoes the daemon's stamps; fold them into
        // the originating context (MergeStampsFrom drops the repeated
        // broker-encode stamp). Stale echoes for some other trace — a
        // dedup-suppressed ack — stay out.
        TraceContext echoed;
        if (DecodeAck(reply.front().payload, &echoed).ok() &&
            echoed.trace_id == trace.trace_id) {
          trace.MergeStampsFrom(echoed);
        }
      });
  // Queue-to-replay only for calls that ENTERED degraded: strict mode keeps
  // its all-or-nothing contract and fails the publish instead. (A replayed
  // frame that was applied but never acked dedups on its batch sequence.)
  if (entered_degraded) {
    for (Slot& slot : slots) QueueUnsent(&slot, frames, frame_events);
  }
  // Park the trace for the gather stamp only if at least one daemon echoed
  // its stamps back (one lone broker-encode stamp says nothing).
  if (trace.active() && trace.stamps.size() > 1) ParkTrace(std::move(trace));
  return FirstError(slots);
}

void FanoutCluster::ParkTrace(TraceContext trace) {
  // The ring is bounded: a broker nobody scrapes must not grow without
  // bound.
  std::lock_guard<std::mutex> lock(traces_mu_);
  traces_.push_back(std::move(trace));
  while (traces_.size() > kMaxParkedTraces) traces_.pop_front();
}

Status FanoutCluster::Drain() {
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  std::string request;
  AppendEmptyRequest(MessageTag::kDrain, &request);
  return Broadcast(nullptr, request, MessageTag::kAck, Coverage::kQuorum);
}

Result<std::vector<Recommendation>> FanoutCluster::TakeRecommendations() {
  return TakeRecommendations(nullptr);
}

Result<std::vector<Recommendation>> FanoutCluster::TakeRecommendations(
    GatherReport* caller_report) {
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  // One gather at a time: the daemons hold this broker's last reply until
  // an ack names it, so two gathers in flight would both receive it.
  std::lock_guard<std::mutex> gathering(gather_mu_);
  std::vector<TakeAck> acks;
  acks.reserve(daemons_.size());
  for (const auto& daemon : daemons_) {
    acks.push_back({daemon->endpoint.partition, daemon->merged_take});
  }
  std::string request;
  AppendTakeRecommendations(broker_id_, acks, &request);
  std::vector<Recommendation> recs;
  // The take id each merged daemon's reply named.
  std::vector<std::pair<Daemon*, uint64_t>> merged_takes;
  GatherReport report;
  report.daemons_total = static_cast<uint32_t>(daemons_.size());
  // Gather: each daemon streams its share as chunked reply frames; the
  // merged result is their concatenation (cross-partition ordering is
  // unspecified, exactly as with the in-process broker). A daemon's share
  // is merged only when its stream completed: a daemon that dies
  // mid-stream is reported missing, and what it did deliver must not sit
  // in a merge whose report names its partition absent. It keeps that
  // share and sends it again, since its cursor does not move.
  const Status covered = Broadcast(
      nullptr, request, MessageTag::kRecommendationsReply, Coverage::kQuorum,
      [&](Slot* slot, const std::vector<Frame>& reply) {
        std::vector<Recommendation> staged;
        Status decoded;
        uint64_t take = 0;
        if (slot->answered) {
          bool more = false;
          for (const Frame& frame : reply) {
            uint64_t chunk_take = 0;
            decoded = DecodeRecommendationsReply(frame.payload, &staged, &more,
                                                 &chunk_take);
            if (!decoded.ok()) break;
            // Every chunk of one stream names the same take: acking a mix
            // would free a reply this gather never merged whole.
            if (&frame != &reply.front() && chunk_take != take) {
              decoded = Status::InvalidArgument(StrFormat(
                  "reply stream names take %llu, then take %llu",
                  static_cast<unsigned long long>(take),
                  static_cast<unsigned long long>(chunk_take)));
              break;
            }
            take = chunk_take;
          }
          if (decoded.ok() && more) {
            // The session said "last frame" while the chunking protocol
            // promised more: the reply stream is broken.
            decoded =
                Status::Internal("chunked reply ended with has_more set");
          }
        }
        // The merge, the coverage report and the staleness series. A daemon
        // answered iff THIS gather's chunk stream completed on its lane — a
        // replay-flush error carried in slot->status must not mark a daemon
        // missing when its recommendations are in the merge.
        Daemon* daemon = slot->daemon;
        if (slot->answered && decoded.ok()) {
          recs.insert(recs.end(), std::make_move_iterator(staged.begin()),
                      std::make_move_iterator(staged.end()));
          merged_takes.emplace_back(daemon, take);
          daemon->gathers_missed_consecutive->Set(0);
          report.daemons_answered++;
          return decoded;
        }
        daemon->gathers_missed->Increment();
        daemon->gathers_missed_consecutive->Add(1);
        const uint32_t partition = daemon->endpoint.partition;
        if (partition == FanoutEndpoint::kAllPartitions && group_size_ > 0) {
          for (uint32_t p = 0; p < group_size_; ++p) {
            report.missing_partitions.push_back(p);
          }
        } else {
          report.missing_partitions.push_back(partition);
        }
        return decoded;
      });
  std::sort(report.missing_partitions.begin(),
            report.missing_partitions.end());
  if (caller_report != nullptr) *caller_report = report;
  // Below quorum (or strict, or a replay rejection): the call returns
  // nothing, so no cursor moves and every daemon sends its share again.
  if (!covered.ok()) return covered;
  for (const auto& [daemon, take] : merged_takes) daemon->merged_take = take;
  if (!report.complete()) {
    degraded_gathers_->Increment();
  }
  // A successful gather closes every parked trace that was still waiting
  // for one: this is the merge that carries the traced batch's
  // recommendations (or would have, had it produced any).
  {
    std::lock_guard<std::mutex> lock(traces_mu_);
    for (TraceContext& parked : traces_) {
      if (parked.Find(TraceStage::kGather) == nullptr) {
        parked.Stamp(TraceStage::kGather, kTracePartyBroker,
                     SystemClock::Default()->Now());
      }
    }
  }
  return recs;
}

Status FanoutCluster::Checkpoint(Timestamp created_at) {
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  std::string request;
  AppendCheckpoint(created_at, &request);
  // Durability never degrades: a checkpoint that silently skipped a daemon
  // would leave that shard unrecoverable.
  return Broadcast(nullptr, request, MessageTag::kAck, Coverage::kEvery);
}

Status FanoutCluster::KillReplica(uint32_t partition, uint32_t replica) {
  MAGICRECS_ASSIGN_OR_RETURN(Daemon* daemon, RouteToPartition(partition));
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  std::string request;
  AppendReplicaOp(MessageTag::kKillReplica, partition, replica, &request);
  return Broadcast(daemon, request, MessageTag::kAck, Coverage::kEvery);
}

Status FanoutCluster::RecoverReplica(uint32_t partition, uint32_t replica) {
  MAGICRECS_ASSIGN_OR_RETURN(Daemon* daemon, RouteToPartition(partition));
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  std::string request;
  AppendReplicaOp(MessageTag::kRecoverReplica, partition, replica, &request);
  return Broadcast(daemon, request, MessageTag::kAck, Coverage::kEvery);
}

std::vector<TraceContext> FanoutCluster::TakeTraces() {
  std::vector<TraceContext> out;
  std::lock_guard<std::mutex> lock(traces_mu_);
  out.assign(std::make_move_iterator(traces_.begin()),
             std::make_move_iterator(traces_.end()));
  traces_.clear();
  return out;
}

Result<std::string> FanoutCluster::GetStatsText() {
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  std::string out = "# source broker\n";
  out += registry_.RenderText();

  // Scrape every daemon concurrently. A daemon that cannot answer (down,
  // or a pre-kStatsText binary answering kError) degrades to an annotated
  // header line — an observability probe into a degraded cluster must
  // return the healthy daemons' text, not fail wholesale.
  std::string request;
  AppendEmptyRequest(MessageTag::kStatsText, &request);
  MAGICRECS_RETURN_IF_ERROR(Broadcast(
      nullptr, request, MessageTag::kStatsTextReply, Coverage::kNone,
      [&out](Slot* slot, const std::vector<Frame>& reply) {
        const FanoutEndpoint& e = slot->daemon->endpoint;
        const std::string header =
            e.partition == FanoutEndpoint::kAllPartitions
                ? StrFormat("# source daemon %s:%u", e.host.c_str(), e.port)
                : StrFormat("# source daemon %s:%u partition %u",
                            e.host.c_str(), e.port, e.partition);
        std::string text;
        if (!slot->answered && slot->live()) {
          // A live lane that did not answer got a server kError to THIS
          // request; print it as the daemon sent it (the header names the
          // daemon already).
          out += StrFormat("%s error: %s\n", header.c_str(),
                           std::string(slot->daemon_error.message()).c_str());
        } else if (!slot->answered) {
          out += StrFormat("%s unreachable: %s\n", header.c_str(),
                           std::string(slot->status.message()).c_str());
        } else if (!DecodeStatsTextReply(reply.front().payload, &text).ok()) {
          out += StrFormat("%s error: malformed stats-text reply\n",
                           header.c_str());
        } else {
          out += header;
          out += '\n';
          out += text;
          if (!text.empty() && text.back() != '\n') out += '\n';
        }
        // A replayed frame this daemon rejected is permanent event loss;
        // the scrape may be the first call to see it, and the only one.
        if (!slot->server_error.ok()) {
          out += StrFormat("# replay rejected: %s\n",
                           slot->server_error.ToString().c_str());
        }
        return Status::OK();
      }));
  return out;
}

Result<HashPartitioner> FanoutCluster::Partitioner() const {
  if (group_size_ == 0) {
    return Status::Unimplemented(
        "single all-hosting daemon with no group_size configured: placement "
        "lives server-side");
  }
  return HashPartitioner(group_size_, options_.partitioner_salt);
}

Placement FanoutCluster::placement() const {
  Placement placement;
  placement.group_size = group_size_;
  placement.salt = options_.partitioner_salt;
  return placement;
}

Status FanoutCluster::Ping() {
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  std::string request;
  AppendEmptyRequest(MessageTag::kPing, &request);
  // Strict under every policy: its whole point is to find the daemon that
  // is down. Acquiring the lanes dials, and so placement-checks, every
  // daemon not yet connected.
  return Broadcast(nullptr, request, MessageTag::kAck, Coverage::kEvery);
}

// --- health monitor ----------------------------------------------------------

void FanoutCluster::StartHealthMonitor() {
  journal_ = std::make_unique<EventLog>(options_.event_journal_path);
  monitor_ = std::make_unique<HealthMonitor>(
      &registry_, journal_.get(),
      std::vector<const Counter*>{replay_dropped_events_},
      [this](std::span<const double> rates, HealthInputs* inputs) {
        CollectHealthInputs(rates, inputs);
      },
      options_.health_interval_ms,
      [this](const HealthReport& report,
             const std::vector<HealthTransition>& transitions) {
        OnHealthReport(report, transitions);
      });
}

void FanoutCluster::CollectHealthInputs(std::span<const double> rates,
                                        HealthInputs* inputs) {
  // Permanent event loss in-window (replay rejections and overflow) is the
  // broker's own failure to uphold the degraded contract — it scores the
  // "broker" party, not a daemon.
  const double loss_rate = rates[0];

  for (const auto& daemon : daemons_) {
    HealthInputs::Party party;
    party.name = daemon->party;
    {
      std::lock_guard<std::mutex> lock(daemon->mu);
      // backoff_ms resets to 0 on a successful dial, so nonzero means the
      // most recent attempt failed — the circuit breaker is (or was) open.
      party.unreachable = daemon->backoff_ms != 0;
    }
    party.gathers_missed_consecutive = static_cast<uint64_t>(
        daemon->gathers_missed_consecutive->Value());
    {
      std::lock_guard<std::mutex> lock(daemon->replay_mu);
      party.replay_events = daemon->replay_events;
    }
    party.replay_capacity = options_.replay_buffer_events;
    inputs->parties.push_back(std::move(party));
  }

  HealthInputs::Party broker;
  broker.name = "broker";
  broker.replay_loss_rate_per_s = loss_rate;
  inputs->parties.push_back(std::move(broker));
}

void FanoutCluster::OnHealthReport(
    const HealthReport& report,
    const std::vector<HealthTransition>& transitions) {
  (void)transitions;  // journaled by the monitor itself
  // Only kAuto flips; every other configured policy is pinned.
  if (options_.policy != FanoutPolicy::kAuto) return;

  bool any_daemon_unhealthy = false;
  const PartyHealth* worst = nullptr;
  for (const PartyHealth& party : report.parties) {
    if (party.party == "broker") continue;
    if (party.state == HealthState::kHealthy) continue;
    any_daemon_unhealthy = true;
    if (worst == nullptr || party.state > worst->state) worst = &party;
  }

  const FanoutPolicy current = active_policy();
  FanoutPolicy desired = current;
  if (any_daemon_unhealthy) {
    desired = FanoutPolicy::kQuorum;
  } else {
    // Flip back only when every replay buffer has drained: AcquireLanes
    // flushes owed frames under any policy, but strict gathers would
    // count still-parked events as missing, and the whole point of the
    // dwell was to be sure before tightening the contract again.
    bool replay_empty = true;
    for (const auto& daemon : daemons_) {
      std::lock_guard<std::mutex> lock(daemon->replay_mu);
      if (daemon->replay_events != 0) {
        replay_empty = false;
        break;
      }
    }
    if (replay_empty) desired = FanoutPolicy::kStrict;
  }

  if (desired == current) return;

  active_policy_.store(desired, std::memory_order_relaxed);
  policy_flips_->Increment();
  registry_.GetGauge("broker_policy")->Set(static_cast<int64_t>(desired));
  const std::string trigger_party = worst != nullptr ? worst->party : "";
  const std::string reason =
      worst != nullptr ? std::string(HealthReasonName(worst->reason))
                       : std::string(HealthReasonName(HealthReason::kRecovered));
  const std::string detail =
      worst != nullptr ? worst->detail
                       : "all parties healthy through dwell, replay drained";
  journal_->Append(
      report.at_us, "policy_flip",
      {LogEvent::Str("from", std::string(FanoutPolicyName(current))),
       LogEvent::Str("to", std::string(FanoutPolicyName(desired))),
       LogEvent::Str("trigger_party", trigger_party),
       LogEvent::Str("reason", reason), LogEvent::Str("detail", detail)});
  std::fprintf(stderr, "fanout broker: policy %s -> %s%s%s%s\n",
               std::string(FanoutPolicyName(current)).c_str(),
               std::string(FanoutPolicyName(desired)).c_str(),
               trigger_party.empty() ? "" : " (",
               trigger_party.empty()
                   ? ""
                   : (trigger_party + ": " + reason + ", " + detail).c_str(),
               trigger_party.empty() ? "" : ")");
}

Result<HealthReport> FanoutCluster::GetHealth() {
  MAGICRECS_ASSIGN_OR_RETURN(const auto lifecycle, Enter());
  return monitor_ != nullptr ? monitor_->Latest() : HealthReport{};
}

Status FanoutCluster::Close() {
  if (closed_.exchange(true)) return Status::OK();
  for (const auto& daemon : daemons_) {
    std::shared_ptr<MuxConnection> conn;
    {
      std::lock_guard<std::mutex> lock(daemon->mu);
      conn = std::move(daemon->conn);
      daemon->conn.reset();
      daemon->cv.notify_all();
    }
    // Sever outside the lock: in-flight calls fail their awaits and
    // return. The connection object itself dies when the last in-flight
    // slot drops its reference.
    if (conn != nullptr) conn->Shutdown();
  }
  // Barrier: wait out the in-flight calls (their awaits just failed) so
  // the destructor can never free Daemon state under one.
  std::unique_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  // Join the health monitor before daemon state is cleared: its collector
  // walks daemon mutexes and replay depths, and GetHealth() dereferences
  // it under the shared lifecycle lock this barrier just drained.
  monitor_.reset();
  // With no call in flight anymore, drop everything a degraded run parked:
  // replay buffers must not pin memory after close.
  for (const auto& daemon : daemons_) {
    std::lock_guard<std::mutex> lock(daemon->replay_mu);
    daemon->replay.clear();
    daemon->replay_events = 0;
  }
  return Status::OK();
}

}  // namespace magicrecs::net
