// The distributed deployment of §2: N partitions (20 in production), each
// holding an S shard for its resident A's plus a full copy of D, optionally
// replicated "for both fault tolerance and increased query throughput".
// Brokers fan the edge stream out to every partition (each partition consumes
// the entire stream) and gather the per-partition recommendations.
//
// Two execution modes:
//   * inline   — single-threaded, deterministic; every call processes one
//                event through all partitions synchronously. Used by tests
//                and virtual-time experiments.
//   * threaded — one worker thread per replica with bounded inboxes; the
//                Publish() path is the broker. Each publish call hands every
//                replica inbox one shared, sequenced batch, and a worker
//                applies a popped batch event by event. Used by the
//                throughput experiments and the daemon.
//
// Replica semantics: every alive replica ingests every event (D must stay
// complete on all of them); the motif query for an event runs on exactly one
// replica per partition, chosen round-robin by sequence number — that is the
// "increased query throughput" of the paper. Failover re-spreads queries
// over the survivors; a recovered replica must re-sync D from a healthy peer
// before rejoining.
//
// Partition-group mode (ClusterOptions::group_size): one Cluster instance
// hosts a single global partition of a wider deployment, so each partition
// can run as its own magicrecsd process behind the fan-out broker in
// net/fanout_cluster.h — the process-per-partition topology of the paper.
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
struct RecoveryStats;

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

  /// Bounded inbox size per replica in threaded mode (backpressure), in
  /// events. A publish batch larger than this enters an empty inbox alone.
  size_t inbox_capacity = 1 << 16;

  /// Salt for the hash partitioner.
  uint64_t partitioner_salt = 0;

  /// Partition-group deployment (one daemon per partition). When group_size
  /// is non-zero this cluster hosts ONLY global partition `group_partition`
  /// of a group_size-wide deployment: the partitioner spans the full group,
  /// so the S shard cut here is byte-identical to the corresponding shard of
  /// a single process hosting all group_size partitions, and replica ops /
  /// stats speak global partition ids. `num_partitions` is ignored. Every
  /// group member must still ingest the entire edge stream (D is complete on
  /// every partition) — the broker-side fan-out (net/fanout_cluster.h) does
  /// that.
  uint32_t group_size = 0;
  uint32_t group_partition = 0;

  /// Durability. When persist.dir is set, the broker write-ahead-logs every
  /// published event (threaded and inline modes both), Checkpoint() writes
  /// snapshots there, and RecoverReplica() rebuilds a dead replica from
  /// snapshot + WAL even when no healthy peer survives.
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

  /// Processes one edge-creation event through every partition
  /// synchronously; appends gathered recommendations to *out. Must not be
  /// mixed with threaded-mode calls.
  Status OnEdge(VertexId src, VertexId dst, Timestamp t,
                std::vector<Recommendation>* out);

  /// Same, but keeps the event's action type (content pipelines and the RPC
  /// transport publish retweet/favorite events too). The sequence field is
  /// assigned here; any caller-provided value is overwritten.
  Status OnEdgeEvent(EdgeEvent event, std::vector<Recommendation>* out);

  /// Applies a whole wire batch synchronously: sequences + WAL-appends every
  /// event under one wal_mu_ acquisition, then runs the detectors event by
  /// event. One lock round-trip per batch instead of per event. A failed
  /// apply is counted and the batch keeps going, as in threaded mode; the
  /// first failure is returned after the last event.
  Status OnEdgeEventBatch(std::span<const EdgeEvent> events,
                          std::vector<Recommendation>* out);

  // --- Threaded mode ---------------------------------------------------------

  /// Spawns one worker thread per replica. FailedPrecondition if running.
  Status Start();

  /// Broker fan-out of one event: PublishBatch of a batch of one.
  Status Publish(EdgeEvent event);

  /// Batch fan-out: copies the batch once, sequences and WAL-appends it
  /// under one wal_mu_ acquisition, then pushes that one immutable copy onto
  /// every replica's inbox (blocking on backpressure). Same per-event
  /// semantics as Publish called in a loop, with one inbox handoff per
  /// replica for the whole batch.
  Status PublishBatch(std::span<const EdgeEvent> events);

  /// Blocks until every replica has consumed everything published so far.
  void Drain();

  /// Closes inboxes and joins workers. Idempotent.
  void Stop();

  /// Moves out all recommendations gathered since the last call. Ordering
  /// across partitions is unspecified (concurrent gathering).
  std::vector<Recommendation> TakeRecommendations();

  // --- Failure injection -----------------------------------------------------

  /// Marks a replica dead: it stops ingesting and answering queries; other
  /// replicas of the partition absorb its query share.
  Status KillReplica(uint32_t partition, uint32_t replica);

  /// Re-syncs the replica's dynamic state and marks it alive. With
  /// persistence configured the replica is rebuilt from snapshot + WAL
  /// replay (authoritative even with zero healthy peers); otherwise D is
  /// copied from a healthy peer if one exists. In threaded mode, call only
  /// while quiesced (after Drain()). `recovery_stats` (optional) receives
  /// what the persistent path read and replayed.
  Status RecoverReplica(uint32_t partition, uint32_t replica,
                        RecoveryStats* recovery_stats = nullptr);

  // --- Durability ------------------------------------------------------------

  /// Writes a snapshot of the dynamic state (D is identical on every alive
  /// replica, so one copy covers the whole cluster) and reclaims the WAL
  /// segments and snapshots it supersedes. Call while quiesced (inline
  /// mode, or threaded mode after Drain()). FailedPrecondition without
  /// persistence; Unavailable if every replica is dead.
  Status Checkpoint(Timestamp created_at = 0);

  /// The broker's WAL writer (null when persistence is disabled).
  const WalWriter* wal() const { return wal_.get(); }

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
  const PartitionServer& server(uint32_t partition, uint32_t replica) const;
  const HashPartitioner& partitioner() const { return partitioner_; }
  uint64_t events_published() const {
    return events_published_.load(std::memory_order_relaxed);
  }

  /// Sum of all shard sizes (equals the unsharded S times the replication
  /// factor).
  size_t TotalStaticMemory() const;

  /// Sum of all D copies — the paper's noted scalability bottleneck: D is
  /// replicated into every partition, so this grows linearly with
  /// partitions * replicas.
  size_t TotalDynamicMemory() const;

  /// Detector stats merged across all locally hosted replicas.
  MotifEngineStats AggregatedStats() const;

  /// Per-replica counters tagged with global partition identity, ordered by
  /// (partition, replica). The attributable complement of AggregatedStats().
  std::vector<ReplicaStats> PerReplicaStats() const;

 private:
  /// One publish batch on its way into a replica inbox. Every replica's
  /// inbox holds the same immutable events; `queued` starts at the push.
  struct InboxBatch {
    std::shared_ptr<const EdgeEvent[]> events;
    size_t size = 0;
    Stopwatch queued;
  };
  using Inbox = MpmcQueue<InboxBatch>;

  Cluster(const ClusterOptions& options, HashPartitioner partitioner);

  /// Index into servers_/alive_masks_/inboxes_ for a global partition id,
  /// or -1 when this process does not host that partition.
  int LocalPartitionIndex(uint32_t partition) const;

  /// True iff `replica` should run the motif query for `sequence` given the
  /// current alive mask of its partition. `local` is a local partition
  /// index.
  bool ShouldEmit(uint32_t local, uint32_t replica, uint64_t sequence) const;

  void WorkerLoop(uint32_t local, uint32_t replica);

  /// Stamps contiguous sequence numbers on a whole batch and, when
  /// persistence is on, WAL-appends it — atomically together under a single
  /// wal_mu_ acquisition, so the log is ordered by sequence.
  Status AssignSequenceAndLogBatch(std::span<EdgeEvent> events);

  /// The inline-mode per-event apply shared by OnEdgeEvent and
  /// OnEdgeEventBatch (event already sequenced and logged). Applies to every
  /// alive replica even when one fails; returns the first failure.
  Status ApplyInline(const EdgeEvent& event, std::vector<Recommendation>* out);

  /// One replica's apply of one event, shared by ApplyInline and the
  /// workers: emits if ShouldEmit picks it, counts a failure in
  /// publish_apply_errors, and times the apply into publish_apply_us only
  /// when the event is a timing sample (IsTimingSample).
  Status ApplyToReplica(uint32_t local, uint32_t replica,
                        const EdgeEvent& event,
                        std::vector<Recommendation>* out);

  ClusterOptions options_;
  HashPartitioner partitioner_;
  /// Global partition ids hosted here; servers_[i] / alive_masks_[i] /
  /// inboxes_[i] belong to owned_partitions_[i].
  std::vector<uint32_t> owned_partitions_;
  std::vector<std::vector<std::unique_ptr<PartitionServer>>> servers_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> alive_masks_;

  /// publish_apply_us{partition=P}, one per hosted partition, resolved once
  /// at Create so the per-event path never takes the registry lock. One
  /// sample per replica per timed event: that replica's OnEvent.
  std::vector<HistogramMetric*> apply_histograms_;
  /// publish_inbox_wait_us{partition=P}: one sample per batch per replica,
  /// from the publisher's push (backpressure included) to the worker's pop.
  std::vector<HistogramMetric*> inbox_wait_histograms_;
  /// publish_apply_errors{partition=P}: replica applies that failed. The
  /// inline path also returns the error; the threaded worker has no caller
  /// to return it to, so this counter is the only trace it leaves.
  std::vector<Counter*> apply_errors_;

  // Durability state (null / unused when options_.persist is disabled).
  std::unique_ptr<WalWriter> wal_;
  std::mutex wal_mu_;

  // Threaded mode state.
  bool running_ = false;
  std::vector<std::vector<std::unique_ptr<Inbox>>> inboxes_;
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
