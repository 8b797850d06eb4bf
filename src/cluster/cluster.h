// The distributed deployment of §2: N partitions (20 in production), each
// holding an S shard for its resident A's, optionally replicated "for both
// fault tolerance and increased query throughput". Brokers fan the edge
// stream out to every partition and gather the per-partition
// recommendations.
//
// D is kept once per process: the paper gives each partition a complete D
// because each runs on its own machine, but the partitions and replicas of
// one process share one. The plan splits at the query: the window half (a
// WindowStage: insert into D, collect actors, check k, cap) runs once per
// event per process, and each replica is only a query half (a QueryStage:
// S fetch, intersection, emit) on its shard over the actor ids found.
//
// Two execution modes:
//   * inline   — single-threaded, deterministic; each call runs the window
//                half, then the query halves. Used by tests and virtual-time
//                experiments.
//   * threaded — the Publish() path is the broker: it sequences and WAL-logs
//                each batch and, under the same lock, hands it to the window
//                thread, the only thread that touches D. That thread pushes
//                one immutable batch — the events plus each event's actor
//                ids or "no query" — onto every replica's bounded inbox, and
//                one worker per replica runs the query halves. Used by the
//                throughput experiments and the daemon.
//
// Replica semantics: the query for an event runs on exactly one alive
// replica per partition, chosen round-robin by sequence number — the
// "increased query throughput" of the paper. Failover re-spreads queries
// over the survivors; a recovered replica reads the process's current D, so
// recovery is an alive-bit flip, made while no event is queued.
//
// Partition-group mode (ClusterOptions::group_size): one Cluster instance
// hosts a single global partition of a wider deployment, so each partition
// can run as its own magicrecsd process, with its own D, behind the fan-out
// broker in net/fanout_cluster.h — the process-per-partition topology of
// the paper.
// See docs/architecture.md.

#ifndef MAGICRECS_CLUSTER_CLUSTER_H_
#define MAGICRECS_CLUSTER_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/partition_server.h"
#include "cluster/partitioner.h"
#include "core/motif_engine.h"
#include "core/recommendation.h"
#include "graph/static_graph.h"
#include "persist/persist_options.h"
#include "stream/event.h"
#include "util/clock.h"
#include "util/mpmc_queue.h"
#include "util/result.h"

namespace magicrecs {

class Counter;
class HistogramMetric;
class WalWriter;

/// Identity-tagged per-replica counters (surfaced as
/// ClusterStats::per_replica and over the stats RPC): the global partition
/// id and replica index ride along, so stats gathered from many
/// partition-group daemons stay attributable to the shard that produced
/// them.
struct ReplicaStats {
  uint32_t partition = 0;  ///< global partition id
  uint32_t replica = 0;
  bool alive = true;
  uint64_t detector_events = 0;
  uint64_t threshold_queries = 0;
  uint64_t recommendations = 0;

  friend bool operator==(const ReplicaStats&, const ReplicaStats&) = default;

  /// e.g. "p3/r1 alive events=120 queries=60 recs=2".
  std::string ToString() const;
};

/// Cluster configuration.
struct ClusterOptions {
  /// Number of partitions (the paper's production value is 20).
  uint32_t num_partitions = 20;

  /// Replicas per partition (1 = no replication).
  uint32_t replicas_per_partition = 1;

  /// Detector parameters applied on every partition server.
  DiamondOptions detector;

  /// Influencer cap applied to the follow graph before sharding (see
  /// ApplyInfluencerCap). When > 0, only each user's
  /// `max_influencers_per_user` most-followed followees contribute to S,
  /// which shrinks S and bounds per-B follower-list fan-in. 0 = off.
  uint32_t max_influencers_per_user = 0;

  /// Threaded mode's backpressure: the window thread's inbox holds up to
  /// half of this in events, each replica inbox up to half in events plus
  /// their actor ids. A batch larger than a half enters an empty inbox alone.
  size_t inbox_capacity = 1 << 16;

  /// Salt for the hash partitioner.
  uint64_t partitioner_salt = 0;

  /// Partition-group deployment (one daemon per partition). When group_size
  /// is non-zero this cluster hosts ONLY global partition `group_partition`
  /// of a group_size-wide deployment: the partitioner spans the full group,
  /// so the S shard cut here is byte-identical to the corresponding shard of
  /// a single process hosting all group_size partitions, and replica ops /
  /// stats speak global partition ids. `num_partitions` is ignored. Every
  /// group member must still ingest the entire edge stream (each member
  /// process keeps a complete D) — the broker-side fan-out
  /// (net/fanout_cluster.h) does that.
  uint32_t group_size = 0;
  uint32_t group_partition = 0;

  /// Durability. When persist.dir is set, the broker write-ahead-logs every
  /// published event (threaded and inline modes both), Checkpoint() writes
  /// snapshots of D there, and Create() restores D from them on restart.
  PersistOptions persist;
};

/// The partitioned, replicated deployment.
class Cluster {
 public:
  /// Builds all shards and replicas from the follow graph (edges A -> B).
  static Result<std::unique_ptr<Cluster>> Create(
      const StaticGraph& follow_graph, const ClusterOptions& options);

  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Inline mode -----------------------------------------------------------

  /// Processes one edge-creation event synchronously: the window half, then
  /// every partition's query half; appends gathered recommendations to
  /// *out. Must not be mixed with threaded-mode calls.
  Status OnEdge(VertexId src, VertexId dst, Timestamp t,
                std::vector<Recommendation>* out);

  /// Same, but keeps the event's action type (content pipelines and the RPC
  /// transport publish retweet/favorite events too). The sequence field is
  /// assigned here; any caller-provided value is overwritten.
  Status OnEdgeEvent(EdgeEvent event, std::vector<Recommendation>* out);

  /// Applies a whole wire batch synchronously: sequences + WAL-appends every
  /// event under one publish_mu_ acquisition, then runs the window half and
  /// the query halves. One lock round-trip per batch instead of per event.
  /// A failed apply is counted and the batch keeps going, as in threaded
  /// mode; the first failure is returned after the last event.
  Status OnEdgeEventBatch(std::span<const EdgeEvent> events,
                          std::vector<Recommendation>* out);

  // --- Threaded mode ---------------------------------------------------------

  /// Spawns the window thread and one worker per replica. FailedPrecondition
  /// if running.
  Status Start();

  /// Broker fan-out of one event: PublishBatch of a batch of one.
  Status Publish(EdgeEvent event);

  /// Batch fan-out: copies the batch once, then sequences, WAL-appends and
  /// queues it for the window thread under one publish_mu_ acquisition
  /// (blocking on backpressure); that thread pushes the one copy onto every
  /// replica's inbox. Same per-event semantics as Publish in a loop. A
  /// failed window half is counted in publish_apply_errors, not returned.
  Status PublishBatch(std::span<const EdgeEvent> events);

  /// Blocks until every replica has consumed everything published so far.
  void Drain();

  /// Closes inboxes and joins the window thread and workers. Idempotent.
  void Stop();

  /// Moves out all recommendations gathered since the last call. Ordering
  /// across partitions is unspecified (concurrent gathering).
  std::vector<Recommendation> TakeRecommendations();

  // --- Failure injection -----------------------------------------------------

  /// Marks a replica dead: it stops answering queries; other replicas of the
  /// partition absorb its query share.
  Status KillReplica(uint32_t partition, uint32_t replica) {
    return SetAlive(partition, replica, false);
  }

  /// Marks a dead replica alive. It reads the process's D, which kept
  /// ingesting while the replica was down, so there is nothing to rebuild.
  /// In threaded mode, call only while quiesced (after Drain()), or a queued
  /// event may be answered twice or not at all.
  Status RecoverReplica(uint32_t partition, uint32_t replica) {
    return SetAlive(partition, replica, true);
  }

  // --- Durability ------------------------------------------------------------

  /// Writes a snapshot of the process's D and reclaims the WAL segments and
  /// snapshots it supersedes. Call while quiesced (inline mode, or threaded
  /// mode after Drain()). FailedPrecondition without persistence.
  Status Checkpoint(Timestamp created_at = 0);

  // --- Introspection ---------------------------------------------------------

  /// Deployment-wide partition count: the full group in partition-group
  /// mode, not just the locally hosted slice.
  uint32_t num_partitions() const { return partitioner_.num_partitions(); }
  uint32_t replicas_per_partition() const {
    return options_.replicas_per_partition;
  }

  /// The global partition ids hosted by this process — all of them normally,
  /// exactly one in partition-group mode.
  const std::vector<uint32_t>& owned_partitions() const {
    return owned_partitions_;
  }
  bool is_partition_group_member() const { return options_.group_size > 0; }
  bool hosts_partition(uint32_t partition) const {
    return LocalPartitionIndex(partition) >= 0;
  }

  /// `partition` is a global id; asserts it is hosted here.
  uint32_t alive_replicas(uint32_t partition) const;
  const QueryStage& replica(uint32_t partition, uint32_t replica) const;
  const HashPartitioner& partitioner() const { return partitioner_; }
  uint64_t events_published() const {
    return events_published_.load(std::memory_order_relaxed);
  }
  /// The sequence the next published event gets; after a restart, one past
  /// the last durable event.
  uint64_t next_sequence() const {
    return next_sequence_.load(std::memory_order_acquire);
  }

  /// The process's one D. Read it quiesced.
  const DynamicInEdgeIndex& dynamic_index() const {
    return window_.dynamic_index();
  }

  /// Sum of all shard sizes (equals the unsharded S times the replication
  /// factor).
  size_t TotalStaticMemory() const;

  /// Bytes of the process's one D, whatever the partition and replica
  /// counts.
  size_t TotalDynamicMemory() const { return window_.MemoryUsage(); }

  /// Detector stats of the process: the window half's counters and stage
  /// times (once per event) merged with every hosted replica's query half.
  MotifEngineStats AggregatedStats() const;

  /// Per-replica counters tagged with global partition identity, ordered by
  /// (partition, replica). The attributable complement of AggregatedStats():
  /// detector_events is the process's D's count, the same on every replica.
  std::vector<ReplicaStats> PerReplicaStats() const;

 private:
  /// A sequenced batch after its window half: what the query halves read.
  struct WindowedBatch {
    std::vector<EdgeEvent> events;
    /// Event i's actor ids are actors[offsets[i], offsets[i + 1]); an empty
    /// range means "no query".
    std::vector<uint32_t> offsets;
    std::vector<VertexId> actors;

    std::span<const VertexId> ActorsOf(size_t i) const {
      return {actors.data() + offsets[i], actors.data() + offsets[i + 1]};
    }
  };

  /// One publish batch on its way into a replica inbox. Every replica's
  /// inbox holds the same immutable batch; `queued` starts at the push.
  struct InboxBatch {
    std::shared_ptr<const WindowedBatch> batch;
    Stopwatch queued;
  };
  using Inbox = MpmcQueue<InboxBatch>;

  Cluster(const ClusterOptions& options, HashPartitioner partitioner,
          const MotifPlan& plan);

  /// Index into replicas_/alive_masks_/inboxes_ for a global partition id,
  /// or -1 when this process does not host that partition.
  int LocalPartitionIndex(uint32_t partition) const;

  /// True iff `replica` should run the motif query for `sequence` given the
  /// current alive mask of its partition. `local` is a local partition
  /// index.
  bool ShouldEmit(uint32_t local, uint32_t replica, uint64_t sequence) const;

  /// KillReplica / RecoverReplica: validates, then flips the alive bit.
  Status SetAlive(uint32_t partition, uint32_t replica, bool alive);

  void WorkerLoop(uint32_t local, uint32_t replica);

  /// Stamps contiguous sequence numbers on `events` and WAL-appends them
  /// when persistence is on. Callers hold publish_mu_ and queue the events
  /// for the window half under it, so the log and D share one order.
  Status SequenceAndLog(std::span<EdgeEvent> events);

  /// Runs the window half of every event of `batch` on D, in order, filling
  /// its actor ranges. A failure is counted in every hosted partition's
  /// publish_apply_errors and leaves its event with no query; the first is
  /// returned once the batch is done.
  Status Window(WindowedBatch* batch);

  /// The window thread: windows each batch publishers hand it, then pushes
  /// it onto every replica inbox.
  void WindowLoop();

  /// One replica's query half of one event ("no query" runs nothing),
  /// inline or in a worker. Times it into publish_apply_us only when the
  /// event is a timing sample (IsTimingSample).
  void QueryOnReplica(uint32_t local, uint32_t replica, const EdgeEvent& event,
                      std::span<const VertexId> actors,
                      std::vector<Recommendation>* out);

  ClusterOptions options_;
  HashPartitioner partitioner_;
  /// Global partition ids hosted here; replicas_[i] / alive_masks_[i] /
  /// inboxes_[i] belong to owned_partitions_[i].
  std::vector<uint32_t> owned_partitions_;
  /// The process's one D (threaded: touched only by the window thread).
  WindowStage window_;
  /// Each replica's query half; a partition's replicas share one S shard.
  std::vector<std::vector<QueryStage>> replicas_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> alive_masks_;

  /// publish_apply_us{partition=P}, one per hosted partition, resolved once
  /// at Create so the per-event path never takes the registry lock. One
  /// sample per timed event: the partition's query half, on the replica
  /// that runs it.
  std::vector<HistogramMetric*> apply_histograms_;
  /// publish_inbox_wait_us{partition=P}: one sample per batch per replica,
  /// from the window thread's push (backpressure included) to the worker's
  /// pop.
  std::vector<HistogramMetric*> inbox_wait_histograms_;
  /// publish_apply_errors{partition=P}: events whose window half failed, so
  /// that no partition could query them; each counts once in every hosted
  /// partition. The inline path also returns the error; a threaded publish
  /// accepts the logged batch, so this counter is the only trace it leaves.
  std::vector<Counter*> apply_errors_;

  // Durability state (null when options_.persist is disabled).
  std::unique_ptr<WalWriter> wal_;
  /// Orders publishers: sequencing, the WAL append and the hand-off to the
  /// window half happen under it.
  std::mutex publish_mu_;

  /// Inline mode's batch, reused so an inline event allocates nothing.
  WindowedBatch inline_batch_;

  // Threaded mode state.
  bool running_ = false;
  using WindowInbox = MpmcQueue<std::shared_ptr<WindowedBatch>>;
  std::unique_ptr<WindowInbox> window_inbox_;
  std::vector<std::vector<std::unique_ptr<Inbox>>> inboxes_;
  std::thread window_worker_;
  std::vector<std::thread> workers_;
  /// Events (not batches) each replica has taken off its inbox.
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> consumed_;
  // Drain() rendezvous: workers wake waiters after bumping their consumed
  // counter instead of the waiters sleep-polling. drain_waiters_ keeps the
  // notify off the per-batch hot path when nobody is draining.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::atomic<int> drain_waiters_{0};
  std::atomic<uint64_t> events_published_{0};
  std::atomic<uint64_t> next_sequence_{0};
  std::mutex results_mu_;
  std::vector<Recommendation> results_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_CLUSTER_H_
