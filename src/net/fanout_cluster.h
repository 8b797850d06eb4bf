// The broker side of the paper's production deployment: ~20 partition
// servers on separate machines, each consuming the entire edge stream,
// behind a broker that fans events out and gathers recommendations back.
// FanoutCluster is that broker as a ClusterTransport — drivers written
// against the seam (tests, benches) run unchanged against N magicrecsd
// processes, one per partition. It is the one broker tier: a daemon's
// RpcServer always fronts an in-process Cluster, never another broker, so
// a gather reply carries recommendations only. The
// broker-only calls — the gather coverage report, completed traces, health
// and placement — are plain FanoutCluster methods, not part of the seam.
//
// Topology: each endpoint is one daemon. Either
//   * one endpoint hosting the whole cluster (partition = kAllPartitions;
//     the single-daemon deployment, and the repo's one client for it), or
//   * N endpoints, each a partition-group member hosting exactly one global
//     partition (magicrecsd --partition-group=N --partition-id=p), covering
//     partitions 0..N-1.
//
// Routing: PublishBatch/Drain/TakeRecommendations/Checkpoint/Stats/Ping
// broadcast to every daemon — every daemon must ingest the full stream
// (each holds a complete D), and a gather is the union of the per-
// partition results. KillReplica/RecoverReplica route to the one daemon
// hosting that partition. Every call runs one windowed exchange: acquire
// the lanes (each flushing its owed replay through the same exchange),
// start frame f on every lane before frame f+1, keep at most
// kPublishWindowFrames unanswered per lane, and await and classify each
// reply once. Broadcasts are the one-frame case and then apply one
// coverage rule; PublishBatch is the many-frame case. The group
// HashPartitioner is exposed through Partitioner() so callers can
// attribute a user (and its recommendations) to the daemon that owns it.
//
// Wire mechanics per daemon: ONE multiplexed connection
// (net/mux_connection.h), shared by every broker caller. Each logical call
// is a request_id on that socket; replies demultiplex to their callers, so
// concurrent gathers, stats probes, and publish pipelines coexist on the
// same connection without a leased-socket pool. A PublishBatch splits into
// kPublishChunkEvents-event kPublishBatch frames, each tagged with a batch
// sequence, and keeps up to kPublishWindowFrames of them outstanding
// (distinct request_ids) per daemon before awaiting acks,
// while the same bytes stream to every other daemon; daemons process
// concurrently, the client never blocks on one daemon before writing to
// the next.
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
// broker (tests/net/fanout_cluster_test.cc). Recommendations already
// gathered when a gather fails — from healthy daemons, and any partial
// share a daemon streamed before dying mid-reply — are buffered (bounded;
// overflow is counted in ClusterStats::rescue_dropped) and delivered by
// the next successful TakeRecommendations: the take is destructive
// server-side, so dropping them would lose them, and a partial share must
// not sit in a merge whose report names its partition missing.
//
// Degraded-mode policy (FanoutClusterOptions::policy): the paper's
// deployment keeps serving recommendations while individual partition
// hosts fail. Under kQuorum / kBestEffort the broker trades the strict
// all-or-nothing contract for availability:
//   * gathers return the merged recommendations of whichever daemons
//     answered, as long as at least the quorum did; the partitions missing
//     from the merge are named by TakeRecommendations(GatherReport*);
//   * publishes to a daemon in reconnect backoff are queued in a bounded
//     per-daemon replay buffer and re-sent — in order, ahead of newer
//     traffic — once the daemon answers again; overflow is an explicit
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
//   * Drain and GetStats tolerate missing daemons under the same quorum;
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
#include "util/result.h"
#include "util/status.h"
#include "util/trace.h"

namespace magicrecs::net {

/// Coverage of one gather: which partitions the merged recommendations
/// actually came from. A degraded-mode broker (FanoutPolicy::kQuorum /
/// kBestEffort) returns merged results while some daemons are down; this
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
  /// The daemon hosts every partition (single-daemon deployment).
  static constexpr uint32_t kAllPartitions = UINT32_MAX;

  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Global partition this daemon hosts (magicrecsd --partition-id), or
  /// kAllPartitions.
  uint32_t partition = kAllPartitions;
};

/// How the broker behaves when some daemons are down (see the class
/// comment for the full contract).
enum class FanoutPolicy {
  kStrict,      ///< any daemon failure fails the call (PR 3 behavior)
  kQuorum,      ///< succeed when >= gather_quorum daemons answer
  kBestEffort,  ///< succeed with whatever answered, even nothing
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
  /// doubles per consecutive failure, capped at the second.
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

  /// Daemons that must answer for a kQuorum gather/drain/stats to succeed.
  /// 0 = majority (endpoints/2 + 1). Ignored by the other policies.
  uint32_t gather_quorum = 0;

  /// Per-daemon replay buffer bound, in events. Publishes that cannot
  /// reach a daemon (backoff, connect failure, mid-pipeline death) are
  /// queued up to this bound and replayed when the daemon answers again;
  /// beyond it the publish returns ResourceExhausted and counts the
  /// overflow in ClusterStats::replay_dropped_events.
  size_t replay_buffer_events = 1 << 16;

  /// Bound on the partial-gather rescue buffer (recommendations already
  /// taken from healthy daemons when a gather failed, owed to the next
  /// successful take). Overflow drops the newest rescued entries and
  /// counts them in ClusterStats::rescue_dropped.
  size_t max_pending_recommendations = 1 << 16;

  // --- health autopilot ------------------------------------------------------

  /// Run the broker-side health engine: a monitor thread samples the
  /// registry every health_interval_ms, scores every daemon plus the
  /// broker itself (src/health/health_engine.h), publishes
  /// `health{party=...}` gauges, journals transitions — and flips the
  /// ACTIVE policy strict→quorum while any daemon is unhealthy, then back
  /// once every party has been healthy through the engine's dwell +
  /// recovery hysteresis AND every replay buffer has drained (flipping to
  /// strict with frames still parked would strand them). Only meaningful
  /// when `policy` is kStrict: a configured degraded policy is already at
  /// or past what the autopilot would flip to, so it is left alone.
  bool autopilot = false;

  /// Evaluation cadence of the broker health engine.
  int health_interval_ms = 250;

  /// Rule thresholds + anti-flap tuning (docs/observability.md).
  HealthThresholds health;

  /// JSONL journal for health transitions, policy flips, and load-shed
  /// events ("" = in-memory ring only; see EventLog::Recent()).
  std::string event_journal_path;

  /// Operator override: keep evaluating and journaling health, but never
  /// flip the active policy (docs/operations.md's "pin the policy").
  bool pin_policy = false;

  /// Load shedding: while any daemon's replay buffer is at least this
  /// full, PublishBatch fails fast with ResourceExhausted instead of
  /// pushing the buffer to its hard bound and dropping events. Shedding
  /// clears once every buffer is back below half this fraction
  /// (hysteresis). 0 disables. Requires autopilot (the monitor is what
  /// evaluates it).
  double shed_replay_frac = 0.9;
};

/// The fan-out/gather broker endpoint. Thread-safe; concurrent callers
/// multiplex over one shared connection per daemon.
class FanoutCluster : public ClusterTransport {
 public:
  /// Validates the topology (either one all-hosting daemon, or explicit
  /// partitions exactly covering 0..group_size-1). Connections are opened
  /// lazily on first use; call Ping() for an eager liveness sweep.
  static Result<std::unique_ptr<FanoutCluster>> Connect(
      const FanoutClusterOptions& options);

  ~FanoutCluster() override;

  Status PublishBatch(std::span<const EdgeEvent> events) override;
  Status Drain() override;

  /// Union of every answering daemon's gather, subject to the policy: a
  /// failure below quorum returns the error and rescues everything already
  /// taken from healthy daemons into a bounded client-side buffer,
  /// prepended to the next successful call (server-side takes are
  /// destructive; see the class comment). A quorum/best-effort success with
  /// daemons missing returns the partial merge; the report overload names
  /// the missing partitions.
  Result<std::vector<Recommendation>> TakeRecommendations() override;

  /// Same gather, also filling `*report` (if non-null) with THIS call's
  /// coverage.
  Result<std::vector<Recommendation>> TakeRecommendations(
      GatherReport* report);

  Status Checkpoint(Timestamp created_at) override;
  Status KillReplica(uint32_t partition, uint32_t replica) override;
  Status RecoverReplica(uint32_t partition, uint32_t replica) override;

  /// Merged view: identity-tagged per_replica entries are concatenated from
  /// all daemons (sorted by partition, replica); detector counters, memory,
  /// and server-loop reactor counters sum; events_published is the
  /// per-daemon maximum, since every daemon counts the same fanned-out
  /// stream.
  Result<ClusterStats> GetStats() override;

  /// The broker's own registry exposition followed by one `# source`-headed
  /// section per daemon (its kStatsText reply). A daemon that cannot answer
  /// — down, or pre-kStatsText — degrades to an annotated header instead of
  /// failing the whole scrape: an observability probe into a degraded
  /// cluster is exactly when partial output matters most.
  Result<std::string> GetStatsText() override;

  /// Drains the completed-trace ring (bounded; oldest dropped on
  /// overflow). A trace completes when a gather ran after its publish.
  std::vector<TraceContext> TakeTraces();

  /// The group partitioner replica ops are routed with. Unimplemented for
  /// one all-hosting daemon with no group_size: placement lives
  /// server-side.
  Result<HashPartitioner> Partitioner() const;

  /// The broker engine's latest report: the broker party plus one party
  /// per daemon, with reasons and triggering values. With the autopilot
  /// off, the party states are rebuilt from the process registry's
  /// `health{party="..."}` gauges. An empty report means no health engine
  /// has evaluated yet.
  Result<HealthReport> GetHealth();

  /// The policy currently steering gathers/replay — the autopilot
  /// may have flipped it away from options.policy.
  FanoutPolicy active_policy() const {
    return active_policy_.load(std::memory_order_relaxed);
  }

  /// True while admission control is rejecting publishes (see
  /// FanoutClusterOptions::shed_replay_frac).
  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }

  /// The event journal (never null once Connect returns; in-memory only
  /// when no path was configured). Transitions, flips, and shed events.
  EventLog* journal() { return journal_.get(); }

  /// One stats sweep that checks liveness and topology together: every
  /// daemon must answer, and each must actually host what the endpoint
  /// list claims — group size, hosted partition, partitioner salt. A
  /// swapped PORT:PARTITION pair, a daemon missing its --partition-group
  /// flags, or a salt mismatch would silently duplicate or drop
  /// recommendations; Ping makes it fail loudly. Returns the first dead or
  /// misconfigured daemon's error.
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
    std::mutex mu;
    std::condition_variable cv;  ///< waits out a concurrent dial

    /// The one multiplexed connection every caller shares. Null until the
    /// first use (or after a failure dropped it).
    std::shared_ptr<MuxConnection> conn;
    bool dialing = false;

    int backoff_ms = 0;  ///< 0 = healthy
    std::chrono::steady_clock::time_point next_attempt{};

    /// Gather staleness (guarded by mu): bumped when this daemon misses a
    /// TakeRecommendations, zeroed when it answers one.
    uint64_t gathers_missed_total = 0;
    uint64_t gathers_missed_consecutive = 0;

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
  /// the healthy ones. Errors name the daemon.
  Result<std::shared_ptr<MuxConnection>> AcquireConn(Daemon* daemon);

  /// Severs `conn` and forgets it as the daemon's shared connection (a
  /// newer one is left alone), opening the circuit-breaker window.
  void DropConn(Daemon* daemon, const std::shared_ptr<MuxConnection>& conn);

  /// The one lane-failure path: records `status` (tagged with the daemon)
  /// as the slot's first error, poisons the lane for the rest of the call,
  /// and drops its connection with backoff. Under a degraded policy a
  /// failed publish lane then parks its unacked frames (QueueUnsent).
  void FailLane(Slot* slot, const Status& status);

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
    kQuorum,  ///< RequiredQuorum() under the active policy: Drain, GetStats,
              ///< the gather
    kNone,    ///< no lane: the scrape annotates failures instead of failing
  };

  /// A broadcast's per-reply step, run once per lane in daemon order with
  /// whatever frames arrived — a failed lane's partial frames too, so the
  /// gather can rescue them. slot->answered says whether the reply
  /// classified as expected; an error return rejects it (the lane no
  /// longer counts as answered and the error, tagged, becomes its status).
  using ReplyStep =
      std::function<Status(Slot* slot, const std::vector<Frame>& reply)>;

  /// The one way the broker talks to daemons: sends frame_at(f), f in
  /// [0, frames), on every live slot, frame f on every lane before f+1,
  /// reaping a lane's oldest frame rather than exceed kPublishWindowFrames
  /// unanswered. Each reply is awaited and classified once, then handed to
  /// on_frame(slot, f, reply, classified): OK is an answer, an error on a
  /// live lane a server rejection, a dead lane a failure (its arrived
  /// frames included). A failed lane never answered frames
  /// [slot.replied, frames).
  template <typename FrameAt, typename OnFrame>
  void Exchange(std::span<Slot> slots, size_t frames, MessageTag expected,
                const FrameAt& frame_at, const OnFrame& on_frame);

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
  /// active policy starts as options.policy and is flipped by the
  /// autopilot; every degraded-mode gate (replay, quorum tolerance) keys
  /// off it, never off the configured one.
  bool degraded() const {
    return active_policy_.load(std::memory_order_relaxed) !=
           FanoutPolicy::kStrict;
  }

  /// Next idempotent batch sequence (never 0, the "no sequence" value a
  /// daemon refuses).
  uint64_t NextBatchSequence();

  /// Daemons that must answer for a broadcast to succeed under the policy.
  size_t RequiredQuorum() const;

  /// Parks recommendations (moved out of *recs) in the bounded pending_
  /// rescue buffer for the next successful gather; overflow is counted in
  /// rescue_dropped_, never silent.
  void RescuePending(std::vector<Recommendation>* recs);

  /// Re-sends the daemon's parked replay frames on the slot's connection,
  /// pipelined through Exchange under replay_mu. Each answered frame
  /// leaves the buffer, counted as replayed (ack) or dropped (rejection);
  /// a lane failure poisons the slot and leaves the unanswered frames
  /// queued for next time.
  void FlushReplayOn(Slot* slot);

  /// Parks frames [slot->replied, frames.size()) in the daemon's replay
  /// buffer after a lane failure, clearing the slot's transport error.
  /// Overflow queues nothing more, counts the dropped events, and sets the
  /// explicit ResourceExhausted status instead.
  void QueueUnsent(Slot* slot, const std::vector<FrameBuf>& frames,
                   const std::vector<size_t>& frame_events);

  /// Appends a trace to the bounded traces_ ring for TakeTraces.
  void ParkTrace(TraceContext trace);

  /// The daemon hosting `partition` (replica ops route there), or
  /// InvalidArgument when none does.
  Result<Daemon*> RouteToPartition(uint32_t partition);

  // --- health autopilot plumbing (see StartHealthMonitor in the .cc) --------

  /// Gauge/party label for a daemon: "pN" for a partition-group member,
  /// "host:port" for an all-hosting daemon.
  std::string PartyName(const Daemon& daemon) const;

  /// Spawns journal_ + monitor_ (Connect tail, after topology validation).
  void StartHealthMonitor();

  /// Monitor pre-sample hook: mirrors the broker's degraded-mode atomics
  /// into the registry so windowed rate queries see them (the same
  /// mirroring GetStatsText performs at scrape time).
  void MirrorBrokerCounters();

  /// Monitor collector: one HealthInputs party per daemon plus "broker".
  /// Also evaluates the load-shed hysteresis, since it already holds the
  /// replay depths.
  void CollectHealthInputs(const MetricsTimeSeries& series, int64_t window_us,
                           HealthInputs* inputs);

  /// Monitor observer: decides the desired active policy from the report
  /// and flips (journaled) unless pinned.
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

  /// Recommendations rescued from a partially failed gather, owed to the
  /// next successful TakeRecommendations. Bounded by
  /// max_pending_recommendations; cleared by Close().
  std::mutex pending_mu_;
  std::vector<Recommendation> pending_;

  /// Source of the idempotent batch sequences every publish frame carries.
  /// Seeded with a random epoch per broker incarnation (see the
  /// constructor): the daemons' dedup window is keyed by the raw sequence
  /// and outlives this broker, so a restarted or second broker must not
  /// reuse values an earlier incarnation already burned.
  /// NextBatchSequence() never hands out 0, the wire's "no sequence".
  std::atomic<uint64_t> next_batch_sequence_{1};

  // Degraded-mode counters surfaced through GetStats() (and mirrored into
  // the process registry at GetStatsText() scrape time via RaiseTo).
  std::atomic<uint64_t> degraded_gathers_{0};
  std::atomic<uint64_t> replayed_events_{0};
  std::atomic<uint64_t> replay_dropped_events_{0};
  std::atomic<uint64_t> rescue_dropped_{0};

  // --- health autopilot state ------------------------------------------------

  /// The policy actually steering this broker. Equals options_.policy
  /// until the autopilot flips it.
  std::atomic<FanoutPolicy> active_policy_{FanoutPolicy::kStrict};

  /// Admission control: set/cleared by the monitor's shed hysteresis,
  /// checked at the top of PublishBatch.
  std::atomic<bool> shedding_{false};

  std::atomic<uint64_t> policy_flips_{0};
  std::atomic<uint64_t> shed_publishes_{0};

  /// Journal + monitor. Created by Connect (journal always, monitor only
  /// with autopilot on); the monitor is torn down at the top of Close(),
  /// before daemon state is severed, since its collector reads daemon
  /// mutexes and replay depths.
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
