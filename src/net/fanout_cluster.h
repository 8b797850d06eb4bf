// The broker side of the paper's production deployment: ~20 partition
// servers on separate machines, each consuming the entire edge stream,
// behind a broker that fans events out and gathers recommendations back.
// FanoutCluster is that broker as a ClusterTransport — drivers written
// against the seam (tests, benches) run unchanged against N magicrecsd
// processes, one per partition. It is the one broker tier: a daemon's
// RpcServer always fronts an in-process Cluster, never another broker, so
// a gather reply carries recommendations only. The
// broker-only calls — the gather coverage report, completed traces, health
// and the routing partitioner — are plain FanoutCluster methods, not part
// of the seam.
//
// Topology: each endpoint is one daemon. Either
//   * one endpoint hosting the whole cluster (partition = kAllPartitions;
//     the single-daemon deployment, and the repo's one client for it), or
//   * N endpoints, each a partition-group member hosting exactly one global
//     partition (magicrecsd --partition-group=N --partition-id=p), covering
//     partitions 0..N-1.
//
// Placement: every dial checks the daemon's hello-reply placement against
// its endpoint — group size, hosted partition (or every partition for an
// all-hosting endpoint) and partitioner salt. A swapped PORT:PARTITION
// pair, a daemon missing (or wrongly given) its --partition-group flags, or
// a salt mismatch would silently duplicate or drop recommendations; the
// dial fails instead, with FailedPrecondition naming the daemon, and opens
// the daemon's circuit-breaker window like any failed dial. The check runs
// wherever a connection is made, so a daemon restarted with other flags is
// caught at the redial, before it gets a frame.
//
// Routing: PublishBatch/Drain/TakeRecommendations/Checkpoint/StatsText/Ping
// broadcast to every daemon — every daemon must ingest the full stream
// (each holds a complete D), and a gather is the union of the per-
// partition results. KillReplica/RecoverReplica route to the one daemon
// hosting that partition. Every call runs one windowed exchange: acquire
// the lanes (each flushing its owed replay through the same exchange),
// queue the open window on every lane and write each lane once, keep at
// most kPublishWindowFrames unanswered per lane, and await and classify
// each reply once. Broadcasts are the one-frame case and then apply one
// coverage rule; PublishBatch is the many-frame case. The group
// HashPartitioner is exposed through Partitioner() so callers can
// attribute a user (and its recommendations) to the daemon that owns it.
//
// Wire mechanics per daemon: ONE multiplexed connection
// (net/mux_connection.h), shared by every broker caller. Each logical call
// is a request_id on that socket; replies demultiplex to their callers, so
// concurrent gathers, scrapes, and publish pipelines coexist on the
// same connection without a leased-socket pool. A PublishBatch splits into
// kPublishChunkEvents-event kPublishBatch frames, each tagged with a batch
// sequence, and keeps up to kPublishWindowFrames of them outstanding
// (distinct request_ids) per daemon before awaiting acks. A lane's window
// leaves in one writev, so the daemon reads it as one burst and serves it
// as one run, then the same bytes go to the next daemon; daemons process
// concurrently, the client never awaits one daemon before writing to the
// next.
//
// Failure handling per daemon: replies are bounded by a per-call recv
// timeout, a connection failure fails only that daemon's lane, and every
// error Status names the daemon (host:port and hosted partition) that
// produced it. A failed daemon opens a circuit-breaker window (doubling
// from reconnect_backoff_ms up to a cap): calls inside the window fail
// fast with Unavailable instead of stalling the healthy daemons, and the
// first call after it redials. A daemon kill mid-pipeline surfaces as a
// Status error on the call — never a crash or a wedged broker — and
// retrying after the daemon returns reconnects without rebuilding the
// broker (tests/net/fanout_cluster_test.cc). A gather loses nothing when
// it fails: a daemon's take is acknowledged, not destructive. Each take
// request carries the broker's random per-incarnation id and its cursor
// for every daemon, the take id of the last reply it merged from it, and
// a daemon holds each broker's last reply until that broker's cursor names
// it (RpcServer, "Acknowledged takes"). A cursor moves only when the
// gather succeeds and that daemon's stream completed and merged, so the
// shares of a failed gather, and a partial share a daemon streamed before
// its lane failed, merge nothing and are sent again by the next take.
// Gathers run one at a time. Delivery is exactly once while this broker
// and the daemons' servers live, and brokers sharing a daemon receive
// disjoint shares. A restarted broker is a new broker to the daemons: the
// last reply its predecessor had not acknowledged is not sent again, and
// a daemon that dies loses what it held and had not yet handed out.
//
// Degraded-mode policy (FanoutClusterOptions::policy): the paper's
// deployment keeps serving recommendations while individual partition
// hosts fail. Under kQuorum the broker trades the strict all-or-nothing
// contract for availability:
//   * gathers return the merged recommendations of whichever daemons
//     answered, as long as at least the quorum did; the partitions missing
//     from the merge are named by TakeRecommendations(GatherReport*);
//   * publishes to a daemon in reconnect backoff are queued in a bounded
//     per-daemon replay buffer and re-sent — in order, ahead of newer
//     traffic — once the daemon answers again. One admission rule guards
//     the bound: a publish that some unreachable daemon's buffer cannot
//     hold is refused whole with ResourceExhausted before its first frame
//     leaves, so no daemon applies it. Only a lane that dies mid-publish
//     (or a concurrent publisher racing past admission) can still overflow
//     a buffer; those events are counted dropped and the call returns
//     ResourceExhausted, never a silent drop;
//   * a publish lane that stays silent for recv_timeout_ms (a stalled
//     daemon), or whose connection fails mid-pipeline, fails over to the
//     same replay buffer: the lane is dropped with backoff and its unacked
//     frames are parked and replayed in order. Every frame carries a batch
//     sequence, so the daemon suppresses the replayed copy when the
//     original did land (RpcServer's dedup window); a copy racing
//     the original's still-in-flight apply is held until that apply
//     resolves — an ack always means the events landed — so replay is
//     exactly-once;
//   * Drain tolerates missing daemons under the same quorum;
//     Checkpoint, replica ops, and Ping stay strict under every policy —
//     durability and topology verification must not silently degrade;
//   * every call, replica ops included, first flushes what its daemons
//     are owed, and a replayed frame the daemon rejects fails the first
//     call that sees it even when the quorum answered (a scrape names it
//     in that daemon's section instead).
// Degraded semantics are eventual, not exact: events parked in a replay
// buffer are invisible to Drain until flushed, so recommendations can
// trail into a later gather. Strict mode keeps the all-or-nothing
// contract: a failed lane fails the publish instead of parking its frames.

#ifndef MAGICRECS_NET_FANOUT_CLUSTER_H_
#define MAGICRECS_NET_FANOUT_CLUSTER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "cluster/partitioner.h"
#include "cluster/transport.h"
#include "health/health_engine.h"
#include "health/health_monitor.h"
#include "net/frame_buf.h"
#include "net/mux_connection.h"
#include "net/wire.h"
#include "util/event_log.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/status.h"
#include "util/trace.h"

namespace magicrecs::net {

/// Coverage of one gather: which partitions the merged recommendations
/// actually came from. A degraded-mode broker (FanoutPolicy::kQuorum)
/// returns merged results while some daemons are down; this
/// report names what is missing so callers can tell a complete gather from
/// a degraded one.
struct GatherReport {
  uint32_t daemons_total = 0;
  uint32_t daemons_answered = 0;

  /// Sorted, deduplicated global partition ids whose recommendations are
  /// NOT in the merged result. UINT32_MAX marks a missing all-hosting
  /// daemon (every partition is missing).
  std::vector<uint32_t> missing_partitions;

  /// True iff every daemon answered.
  bool complete() const {
    return daemons_answered == daemons_total && missing_partitions.empty();
  }

  friend bool operator==(const GatherReport&, const GatherReport&) = default;

  /// e.g. "3/4 daemons answered, missing partitions: 2".
  std::string ToString() const;
};

/// One partition daemon behind the broker.
struct FanoutEndpoint {
  /// The daemon hosts every partition (single-daemon deployment); the
  /// same sentinel its hello-reply placement names.
  static constexpr uint32_t kAllPartitions = Placement::kAllPartitions;

  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Global partition this daemon hosts (magicrecsd --partition-id), or
  /// kAllPartitions.
  uint32_t partition = kAllPartitions;
};

/// How the broker behaves when some daemons are down (see the class
/// comment for the full contract).
enum class FanoutPolicy {
  kStrict,  ///< any daemon failure fails the call (PR 3 behavior)
  kQuorum,  ///< succeed when >= gather_quorum daemons answer
  /// Starts strict; the health monitor (which it requires) flips the
  /// active policy to kQuorum while any daemon is unhealthy and back once
  /// all recover. Never an active policy itself.
  kAuto,
};

std::string_view FanoutPolicyName(FanoutPolicy policy);

/// Events per pipelined kPublishBatch frame.
inline constexpr size_t kPublishChunkEvents = 256;

/// Frames (request_ids) one exchange keeps in flight per daemon before it
/// awaits the oldest reply: a publish's chunks, or a replay flush's parked
/// frames. The daemon's advertised in-flight cap (its hello reply) also
/// bounds the window: MuxConnection::Start blocks there.
inline constexpr size_t kPublishWindowFrames = 32;

struct FanoutClusterOptions {
  std::vector<FanoutEndpoint> endpoints;

  /// Deployment-wide partition count, used to build the routing
  /// partitioner and validate endpoint coverage. 0 derives it from the
  /// endpoint list (endpoints.size() when partitions are explicit).
  uint32_t group_size = 0;

  /// Must match the daemons' partitioner salt (magicrecsd default: 0).
  uint64_t partitioner_salt = 0;

  /// Reply timeout per logical call (0 = block forever). It is also the
  /// failover bound for a slow daemon: under a degraded policy, a publish
  /// lane silent for this long is dropped and its unacked frames park in
  /// the replay buffer, so a stalled daemon delays a publish by at most
  /// this much.
  int recv_timeout_ms = 30'000;

  /// Dial timeout (0 = kernel default, which can be minutes against a
  /// silently dropping host).
  int connect_timeout_ms = 5'000;

  /// Reconnect backoff after a daemon failure: starts at the first value,
  /// doubles per consecutive failure, capped at the second. The first must
  /// be >= 1 (an open circuit is a nonzero backoff) and the cap >= it.
  int reconnect_backoff_ms = 50;
  int max_reconnect_backoff_ms = 2'000;

  /// Sample one publish in this many for end-to-end tracing (util/trace.h):
  /// the sampled batch's FIRST frame carries a trace tail to every daemon,
  /// the daemons' ack echoes fold back into one context, and the next
  /// gather stamps it complete. 0 disables tracing. Unsampled publishes
  /// carry no trace tail.
  uint64_t trace_sample_every = 1024;

  // --- degraded-mode policy --------------------------------------------------

  FanoutPolicy policy = FanoutPolicy::kStrict;

  /// Daemons that must answer for a kQuorum gather or drain to succeed.
  /// 0 = majority (endpoints/2 + 1). Ignored by the other policies.
  uint32_t gather_quorum = 0;

  /// Per-daemon replay buffer bound, in events. Publishes that cannot
  /// reach a daemon (backoff, connect failure, mid-pipeline death) are
  /// queued up to this bound and replayed when the daemon answers again.
  /// A publish an unreachable daemon's buffer cannot hold is refused
  /// before it is sent (ResourceExhausted, broker_shed_publishes); a lane
  /// that dies mid-publish past the bound drops its unsent events instead
  /// (ResourceExhausted, broker_replay_dropped_events).
  size_t replay_buffer_events = 1 << 16;

  // --- health monitor --------------------------------------------------------

  /// > 0 runs the broker-side health monitor on this interval: it samples
  /// the broker's own registry, scores every daemon plus the broker itself
  /// with the default HealthThresholds (src/health/health_engine.h),
  /// publishes `health{party=...}` gauges and journals transitions. Under
  /// kAuto it also flips the ACTIVE policy
  /// strict→quorum while any daemon is unhealthy, then back once every
  /// party has been healthy through the engine's dwell + recovery
  /// hysteresis AND every replay buffer has drained (flipping to strict
  /// with frames still parked would strand them). Any other policy is
  /// pinned: the monitor scores and journals but never flips. 0 (the
  /// default) runs no monitor thread; kAuto then fails Connect.
  int health_interval_ms = 0;

  /// JSONL journal for health transitions and policy flips ("" =
  /// in-memory ring only; see EventLog::Recent()). Requires the monitor,
  /// the only writer.
  std::string event_journal_path;
};

/// The fan-out/gather broker endpoint. Thread-safe; concurrent callers
/// multiplex over one shared connection per daemon.
class FanoutCluster : public ClusterTransport {
 public:
  /// Validates the topology (either one all-hosting daemon, or explicit
  /// partitions exactly covering 0..group_size-1). Connections are opened
  /// lazily on first use, each checking the daemon's placement; call
  /// Ping() for an eager sweep.
  static Result<std::unique_ptr<FanoutCluster>> Connect(
      const FanoutClusterOptions& options);

  ~FanoutCluster() override;

  Status PublishBatch(std::span<const EdgeEvent> events) override;
  Status Drain() override;

  /// Union of every answering daemon's gather, subject to the policy: a
  /// failure below quorum returns the error and acknowledges nothing, so
  /// the daemons send their shares again to the next call (see the class
  /// comment). A quorum success with daemons missing returns
  /// the partial merge; the report overload names the missing partitions.
  Result<std::vector<Recommendation>> TakeRecommendations() override;

  /// Same gather, also filling `*report` (if non-null) with THIS call's
  /// coverage.
  Result<std::vector<Recommendation>> TakeRecommendations(
      GatherReport* report);

  Status Checkpoint(Timestamp created_at) override;
  Status KillReplica(uint32_t partition, uint32_t replica) override;
  Status RecoverReplica(uint32_t partition, uint32_t replica) override;

  /// The broker's own placement: group_size() (0 when unknown), every
  /// partition, and the configured salt.
  Placement placement() const override;

  /// The broker's own registry exposition (its degraded-mode counters,
  /// policy gauge, and monitor verdicts; never the
  /// process-wide registry) followed by one `# source`-headed section per
  /// daemon (its kStatsText reply). A daemon that cannot answer — down, or
  /// pre-kStatsText — degrades to an annotated header instead of failing
  /// the whole scrape: an observability probe into a degraded cluster is
  /// exactly when partial output matters most.
  Result<std::string> GetStatsText() override;

  /// Drains the completed-trace ring (bounded; oldest dropped on
  /// overflow). A trace completes when a gather ran after its publish.
  std::vector<TraceContext> TakeTraces();

  /// The group partitioner replica ops are routed with. Unimplemented for
  /// one all-hosting daemon with no group_size: placement lives
  /// server-side.
  Result<HashPartitioner> Partitioner() const;

  /// The broker monitor's latest report: the broker party plus one party
  /// per daemon, with reasons and triggering values. Empty when no monitor
  /// runs or before its first evaluation.
  Result<HealthReport> GetHealth();

  /// The policy currently steering gathers/replay: strict or quorum,
  /// never kAuto (which starts strict and flips).
  FanoutPolicy active_policy() const {
    return active_policy_.load(std::memory_order_relaxed);
  }

  /// The monitor's event journal: transitions and flips (in-memory only
  /// when no path was configured). Null when no monitor runs.
  EventLog* journal() { return journal_.get(); }

  /// One kPing sweep, strict under every policy: every daemon must answer.
  /// A daemon not yet connected is dialed first, and so placement-checked
  /// (see the file comment). Returns the first dead or misconfigured
  /// daemon's error; a warm Ping costs each daemon one request.
  Status Ping();

  uint32_t group_size() const { return group_size_; }

  Status Close() override;

 private:
  /// One encoded publish frame parked for a daemon that could not take it,
  /// plus how many events it carries (the unit the buffer bound counts).
  /// The frame is a refcounted view of the batch's canonical encoding —
  /// parking it costs segment references, not a byte copy.
  struct ReplayFrame {
    FrameBuf frame;
    size_t events = 0;
  };

  /// Per-daemon shared connection + reconnect/backoff state.
  struct Daemon {
    FanoutEndpoint endpoint;
    /// HealthPartyName of the endpoint: the health party and the `party`
    /// label of its broker_gathers_missed* series.
    std::string party;
    std::mutex mu;
    std::condition_variable cv;  ///< waits out a concurrent dial

    /// The one multiplexed connection every caller shares. Null until the
    /// first use (or after a failure dropped it).
    std::shared_ptr<MuxConnection> conn;
    bool dialing = false;

    int backoff_ms = 0;  ///< 0 = healthy
    std::chrono::steady_clock::time_point next_attempt{};

    /// Gather staleness in the broker's registry, resolved at
    /// construction: broker_gathers_missed{party} counts the gathers this
    /// daemon missed, and broker_gathers_missed_consecutive{party} is the
    /// run since it last answered one (0 = it answered the latest).
    Counter* gathers_missed = nullptr;
    Gauge* gathers_missed_consecutive = nullptr;

    /// The gather cursor: the take id of the last reply a successful
    /// gather merged from this daemon (0: none), acked by every take.
    /// Guarded by gather_mu_.
    uint64_t merged_take = 0;

    /// Queue-and-replay state. replay_mu is held across the replay
    /// exchanges of a flush so replayed frames reach the daemon in publish
    /// order ahead of any caller's new frames (every broker call flushes —
    /// and therefore queues behind an in-progress flush — before sending
    /// its own traffic); it never nests with mu.
    std::mutex replay_mu;
    std::deque<ReplayFrame> replay;
    size_t replay_events = 0;  ///< sum over replay (guarded by replay_mu)
  };

  /// One daemon's slice of a broker call: the connection snapshot, the
  /// first error it produced, and the exchange's window bookkeeping.
  struct Slot {
    Daemon* daemon = nullptr;
    std::shared_ptr<MuxConnection> conn;
    Status status;

    /// First kError REPLY the daemon sent (as opposed to a transport
    /// failure): preserved across a queue-to-replay, which clears the
    /// transport error but must not hide a server-side rejection.
    Status server_error;

    /// The latest kError reply on this lane as the daemon sent it
    /// (untagged): the scrape's `error:` annotation prints it.
    Status daemon_error;

    bool poisoned = false;  ///< lane unusable for the rest of this call

    /// The current exchange's window: frames [replied, started) are in
    /// flight, frame f's handle in window[f % kPublishWindowFrames]; the
    /// first `replied` frames were answered (ack or server error).
    std::array<MuxConnection::CallHandle, kPublishWindowFrames> window;
    size_t started = 0;
    size_t replied = 0;

    /// THIS call's request/reply exchange completed on this lane: the
    /// reply classified as the expected kind and the caller's reply step
    /// accepted it (gather: every chunk decoded). Deliberately distinct
    /// from `status`: a replay-flush failure carried over from
    /// AcquireLanes lands in status, and keying "did this daemon answer"
    /// off status would report a daemon as missing a gather whose
    /// recommendations it fully delivered into the merge.
    bool answered = false;

    /// Lane usable for IO.
    bool live() const { return conn != nullptr && !poisoned; }
  };

  explicit FanoutCluster(const FanoutClusterOptions& options);

  /// The daemon's shared connection, dialing it if absent. Inside a
  /// daemon's reconnect-backoff window this fails fast with Unavailable
  /// (circuit breaker) — one dead daemon must not stall calls touching
  /// the healthy ones. A fresh connection whose placement fails
  /// CheckPlacement is severed and fails like a dial. Errors name the
  /// daemon.
  Result<std::shared_ptr<MuxConnection>> AcquireConn(Daemon* daemon);

  /// Severs `conn` and forgets it as the daemon's shared connection (a
  /// newer one is left alone), opening the circuit-breaker window.
  void DropConn(Daemon* daemon, const std::shared_ptr<MuxConnection>& conn);

  /// The one lane-failure path: records `status` (tagged with the daemon)
  /// as the slot's first error, poisons the lane for the rest of the call,
  /// and drops its connection with backoff. Under a degraded policy a
  /// failed publish lane then parks its unacked frames (QueueUnsent).
  void FailLane(Slot* slot, const Status& status);

  /// Whether a daemon placed at `placed` may serve `endpoint`:
  /// FailedPrecondition, saying what disagrees, if not.
  Status CheckPlacement(const FanoutEndpoint& endpoint,
                        const Placement& placed) const;

  /// Opens/extends the daemon's circuit-breaker window after a failure.
  /// Caller holds daemon->mu.
  void StartBackoffLocked(Daemon* daemon);

  /// Prefixes `status` with the daemon's identity.
  Status TagError(const Daemon& daemon, const Status& status) const;

  /// Holds lifecycle_mu_ shared for the caller's whole call (Close() waits
  /// it out), or fails once the broker is closed.
  Result<std::shared_lock<std::shared_mutex>> Enter();

  /// Snapshots one connection per daemon — every daemon, or just `only` —
  /// with failures landing in the slot's status. A reachable daemon is
  /// first flushed whatever replay it is owed, so every broker call is a
  /// replay opportunity.
  std::vector<Slot> AcquireLanes(Daemon* only);

  /// First error in daemon order.
  Status FirstError(const std::vector<Slot>& slots) const;

  /// The one reply classifier, run by Exchange on every reply. Every
  /// frame of the expected kind is OK. A server kError becomes a
  /// tagged Status, recorded as the slot's first error (and, untagged, as
  /// its daemon_error); the lane stays, since the session still answers.
  /// Any other reply — version skew or a protocol bug — fails the lane
  /// (FailLane).
  Status ClassifyReply(Slot* slot, const std::vector<Frame>& reply,
                       MessageTag expected);

  /// Which lanes must answer for a broadcast to succeed.
  enum class Coverage {
    kEvery,   ///< every lane under every policy: Checkpoint, Ping, replica ops
    kQuorum,  ///< RequiredQuorum() under the active policy: Drain, the gather
    kNone,    ///< no lane: the scrape annotates failures instead of failing
  };

  /// A broadcast's per-reply step, run once per lane in daemon order with
  /// whatever frames arrived, a failed lane's partial frames too.
  /// slot->answered says whether the reply classified as expected; an
  /// error return rejects it (the lane no longer counts as answered and
  /// the error, tagged, becomes its status).
  using ReplyStep =
      std::function<Status(Slot* slot, const std::vector<Frame>& reply)>;

  /// The one way the broker talks to daemons: sends every frame on every
  /// live slot, keeping at most kPublishWindowFrames (or the daemon's
  /// smaller in-flight cap) unanswered per lane. Each lane's open window
  /// is queued in one MuxConnection::Start and so written once: a fill
  /// goes to every lane, then the lanes' oldest frames are reaped one at a
  /// time and each freed slot refilled the same way. Each reply is
  /// awaited and classified once, then handed to
  /// on_frame(slot, f, reply, classified): OK is an answer, an error on a
  /// live lane a server rejection, a dead lane a failure (its arrived
  /// frames included). A failed lane never answered frames
  /// [slot.replied, frames.size()).
  template <typename OnFrame>
  void Exchange(std::span<Slot> slots, std::span<const FrameBuf> frames,
                MessageTag expected, const OnFrame& on_frame);

  /// The exchange behind every call but PublishBatch: one frame, then
  /// `on_reply` over every slot and one coverage rule. The caller holds
  /// Enter()'s lock for its whole call — its tail too, which Close() must
  /// not overtake — so Broadcast never takes it again (a second shared
  /// lock on one thread can deadlock behind a waiting Close()). Acquires
  /// the lanes (every daemon, or `only`), exchanges `request`, hands each
  /// lane's reply to `on_reply` in daemon order, and applies `coverage`.
  /// Returns the first error in daemon order when too few lanes answered;
  /// when enough did, a replay-flush rejection still fails the call
  /// (except under kNone).
  Status Broadcast(Daemon* only, const std::string& request,
                   MessageTag expected, Coverage coverage,
                   const ReplyStep& on_reply = nullptr);

  /// True under a degraded ACTIVE policy (anything but kStrict). The
  /// active policy starts as options.policy (kStrict for kAuto) and only
  /// kAuto's monitor flips it; every degraded-mode gate (replay, quorum
  /// tolerance) keys off it, never off the configured one.
  bool degraded() const {
    return active_policy_.load(std::memory_order_relaxed) !=
           FanoutPolicy::kStrict;
  }

  /// Next idempotent batch sequence (never 0, the "no sequence" value a
  /// daemon refuses).
  uint64_t NextBatchSequence();

  /// Daemons that must answer for a broadcast to succeed under the policy.
  size_t RequiredQuorum() const;

  /// Re-sends the daemon's parked replay frames on the slot's connection,
  /// pipelined through Exchange under replay_mu. Each answered frame
  /// leaves the buffer, counted as replayed (ack) or dropped (rejection);
  /// a lane failure poisons the slot and leaves the unanswered frames
  /// queued for next time.
  void FlushReplayOn(Slot* slot);

  /// Parks frames [slot->replied, frames.size()) in the daemon's replay
  /// buffer after a lane failure, clearing the slot's transport error.
  /// Overflow queues nothing more, counts the dropped events, and sets the
  /// explicit ResourceExhausted status instead. PublishBatch's admission
  /// rule refuses what a lane unreachable at admission cannot park, so
  /// this backstop fires only for a lane that dies mid-publish or a
  /// concurrent publisher that raced past admission.
  void QueueUnsent(Slot* slot, const std::vector<FrameBuf>& frames,
                   const std::vector<size_t>& frame_events);

  /// Appends a trace to the bounded traces_ ring for TakeTraces.
  void ParkTrace(TraceContext trace);

  /// The daemon hosting `partition` (replica ops route there), or
  /// InvalidArgument when none does.
  Result<Daemon*> RouteToPartition(uint32_t partition);

  // --- health monitor plumbing (see StartHealthMonitor in the .cc) ----------

  /// Spawns journal_ + monitor_ (Connect tail, after validation).
  void StartHealthMonitor();

  /// Monitor collector: one HealthInputs party per daemon plus "broker",
  /// whose loss rate is `rates` (replay_dropped_events_).
  void CollectHealthInputs(std::span<const double> rates,
                           HealthInputs* inputs);

  /// Monitor observer: under kAuto, decides the desired active policy
  /// from the report and flips (journaled).
  void OnHealthReport(const HealthReport& report,
                      const std::vector<HealthTransition>& transitions);

  FanoutClusterOptions options_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  uint32_t group_size_ = 0;
  std::atomic<bool> closed_{false};

  /// Every broker call holds this shared; Close() severs the shared
  /// connections (unblocking stalled awaits) and then takes it exclusive,
  /// so the destructor can never free Daemon state under an in-flight
  /// call.
  std::shared_mutex lifecycle_mu_;

  /// Serializes gathers, and guards every Daemon::merged_take.
  std::mutex gather_mu_;

  /// Names this broker in every take request, so each daemon holds this
  /// broker's last reply apart from other brokers'. A random epoch per
  /// incarnation, like the batch sequences; never 0.
  uint64_t broker_id_ = 0;

  /// Source of the idempotent batch sequences every publish frame carries.
  /// Seeded with a random epoch per broker incarnation (see the
  /// constructor): the daemons' dedup window is keyed by the raw sequence
  /// and outlives this broker, so a restarted or second broker must not
  /// reuse values an earlier incarnation already burned.
  /// NextBatchSequence() never hands out 0, the wire's "no sequence".
  std::atomic<uint64_t> next_batch_sequence_{1};

  /// The broker's metrics, apart from the process-wide registry the
  /// daemons' series live in: the monitor rates one of its counters and
  /// publishes its health gauges here, and GetStatsText() renders it as
  /// the `# source broker` section. Declared before monitor_, which must
  /// not outlive it.
  MetricsRegistry registry_;

  // Degraded-mode series, resolved from registry_ once at construction.
  Counter* const degraded_gathers_;
  Counter* const replayed_events_;
  Counter* const replay_dropped_events_;
  Counter* const policy_flips_;
  Counter* const shed_publishes_;

  // --- health monitor state --------------------------------------------------

  /// The policy actually steering this broker. Equals options_.policy,
  /// or kStrict under kAuto until the monitor flips it. The broker_policy
  /// gauge is set with it.
  std::atomic<FanoutPolicy> active_policy_{FanoutPolicy::kStrict};

  /// Journal + monitor. Created by Connect only when health_interval_ms
  /// > 0, both null otherwise; Close() tears the monitor down before it
  /// clears daemon state, since its collector reads daemon mutexes and
  /// replay depths.
  std::unique_ptr<EventLog> journal_;
  std::unique_ptr<HealthMonitor> monitor_;

  /// Publishes seen, for the 1-in-trace_sample_every sampling decision.
  std::atomic<uint64_t> publish_count_{0};

  /// Trace-id source; like batch sequences, seeded with a random epoch per
  /// incarnation so two brokers' traces stay distinguishable. Never 0.
  std::atomic<uint64_t> next_trace_id_{1};

  /// Traces whose publish finished, awaiting (or holding) their kGather
  /// stamp. Bounded to kMaxParkedTraces; oldest dropped on overflow — a
  /// trace is a diagnostic, never backpressure.
  static constexpr size_t kMaxParkedTraces = 64;
  std::mutex traces_mu_;
  std::deque<TraceContext> traces_;
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_FANOUT_CLUSTER_H_
