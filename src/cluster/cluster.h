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
// One contract, publish/drain/gather: PublishBatch() is the broker — it
// sequences and WAL-logs each batch under one lock — and
// TakeRecommendations() gathers what the query halves emitted. Whether
// Start() has run only decides which threads run the halves:
//   * before Start() — the publishing thread, under the same lock: the
//                window half, then every replica's query half, before the
//                call returns. Deterministic; tests and virtual-time
//                experiments use it.
//   * after Start()  — the batch goes to the window thread, the only thread
//                that touches D. That thread pushes one immutable batch —
//                the events plus each event's actor ids or "no query" —
//                onto every replica's bounded inbox, and one worker per
//                replica runs the query halves; Drain() waits for them. The
//                throughput experiments and the daemon use it.
// Both run one per-replica query loop (QueryBatch), so a replica's output is
// in event order either way.
//
// Cluster is the in-process ClusterTransport, the one the daemon's
// RpcServer fronts, so several connection handlers call it at once. The
// data-plane calls (PublishBatch, Drain, TakeRecommendations) run
// concurrently; the control-plane calls that read detector state or must
// not race queued events (GetStatsText, Checkpoint, KillReplica,
// RecoverReplica) run alone and quiesce first.
//
// Replica semantics: the query for an event runs on exactly one alive
// replica per partition, chosen round-robin by sequence number — the
// "increased query throughput" of the paper. Failover re-spreads queries
// over the survivors; a recovered replica reads the process's current D, so
// recovery is an alive-bit flip. Both flips are made quiesced.
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
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_options.h"
#include "cluster/partitioner.h"
#include "cluster/transport.h"
#include "core/motif_engine.h"
#include "core/recommendation.h"
#include "graph/static_graph.h"
#include "stream/event.h"
#include "util/clock.h"
#include "util/mpmc_queue.h"
#include "util/result.h"

namespace magicrecs {

class Counter;
class HistogramMetric;
class WalWriter;

/// One hosted replica's counters, tagged with its global partition id so
/// the counts of many partition-group daemons stay attributable to the
/// shard that produced them. The scrape carries them as the
/// replica_*{partition, replica} series.
struct ReplicaStats {
  uint32_t partition = 0;  ///< global partition id
  uint32_t replica = 0;
  bool alive = true;
  uint64_t detector_events = 0;
  uint64_t threshold_queries = 0;
  uint64_t recommendations = 0;

  /// e.g. "p3/r1 alive events=120 queries=60 recs=2".
  std::string ToString() const;
};

/// The partitioned, replicated deployment.
class Cluster final : public ClusterTransport {
 public:
  /// Builds all shards and replicas from the follow graph (edges A -> B).
  /// The cluster is not started: publishes apply inline until Start().
  static Result<std::unique_ptr<Cluster>> Create(
      const StaticGraph& follow_graph, const ClusterOptions& options);

  ~Cluster() override;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Publish, drain, gather -----------------------------------------------

  /// Spawns the window thread and one worker per replica; later publishes
  /// run on them. Call while no publish is in flight. Events published
  /// before it are already applied. FailedPrecondition if running.
  Status Start();

  /// Batch fan-out: sequences (any caller-provided sequence is overwritten)
  /// and WAL-appends the batch under one publish_mu_ acquisition. Same
  /// per-event semantics as Publish in a loop. A failed window half is
  /// counted in publish_apply_errors and the batch keeps going.
  ///  * Before Start(), under that same acquisition, runs the window half
  ///    and every replica's query half, and returns the first window
  ///    failure once the batch is done.
  ///  * After Start(), copies the batch once and queues it for the window
  ///    thread (blocking on backpressure), which pushes the one copy onto
  ///    every replica's inbox. A window failure is only counted.
  Status PublishBatch(std::span<const EdgeEvent> events) override;

  /// Blocks until every replica has consumed everything published so far.
  /// Returns at once before Start(): an inline publish is done on return.
  Status Drain() override;

  /// Closes inboxes and joins the window thread and workers, if running,
  /// then syncs the WAL. Later publishes run inline until the next
  /// Start(). Idempotent.
  void Stop();

  /// Moves out all recommendations gathered since the last call. Ordering
  /// across partitions is unspecified (concurrent gathering).
  Result<std::vector<Recommendation>> TakeRecommendations() override;

  /// Stop(); every ClusterTransport call after it but Close() is
  /// FailedPrecondition. Idempotent; the destructor stops the cluster
  /// either way.
  Status Close() override;

  // --- Failure injection -----------------------------------------------------

  /// Marks a replica dead: it stops answering queries; other replicas of the
  /// partition absorb its query share. Quiesces first: workers read the
  /// alive mask when they reach an event, and the replicas of a partition
  /// reach a queued event at different times, so a flip with events queued
  /// would answer some twice or not at all.
  Status KillReplica(uint32_t partition, uint32_t replica) override {
    return SetAlive(partition, replica, false);
  }

  /// Marks a dead replica alive. It reads the process's D, which kept
  /// ingesting while the replica was down, so there is nothing to rebuild.
  /// Quiesces first, as KillReplica does.
  Status RecoverReplica(uint32_t partition, uint32_t replica) override {
    return SetAlive(partition, replica, true);
  }

  // --- Durability ------------------------------------------------------------

  /// Quiesces, then writes a snapshot of the process's D and reclaims the
  /// WAL segments and snapshots it supersedes. FailedPrecondition without
  /// persistence.
  Status Checkpoint(Timestamp created_at = 0) override;

  // --- Introspection ---------------------------------------------------------

  /// num_partitions(), the hosted partition in partition-group mode (else
  /// Placement::kAllPartitions), and the partitioner's salt.
  Placement placement() const override;

  /// Quiesces, mirrors the detector counters, histograms, per-replica
  /// counters and the sizes of S and D into the process's MetricsRegistry,
  /// then renders it.
  Result<std::string> GetStatsText() override;

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
  /// Read it quiesced, e.g. after Drain().
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

  /// KillReplica / RecoverReplica: quiesces, validates, then flips the alive
  /// bit.
  Status SetAlive(uint32_t partition, uint32_t replica, bool alive);

  /// Drain() for callers that hold state_mu_.
  void Quiesce();

  void WorkerLoop(uint32_t local, uint32_t replica);

  /// PublishBatch before Start(): both halves on the caller's thread.
  Status PublishInline(std::span<const EdgeEvent> events);

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

  /// One replica's share of a windowed batch, in event order: the query
  /// half of each event whose turn (ShouldEmit) is this replica's ("no
  /// query" runs nothing), then the emitted recommendations into results_.
  /// The workers and PublishInline both run it. An event is timed into
  /// publish_apply_us only when it is a timing sample (IsTimingSample).
  /// `gathered` is the caller's scratch.
  void QueryBatch(uint32_t local, uint32_t replica, const WindowedBatch& batch,
                  std::vector<Recommendation>* gathered);

  ClusterOptions options_;
  HashPartitioner partitioner_;
  /// Global partition ids hosted here; replicas_[i] / alive_masks_[i] /
  /// inboxes_[i] belong to owned_partitions_[i].
  std::vector<uint32_t> owned_partitions_;
  /// The process's one D (after Start(), touched only by the window thread).
  WindowStage window_;
  /// Each replica's query half; a partition's replicas share one S shard.
  /// Workers read it per event while the window thread writes window_'s
  /// tail (its actor scratch): it starts a cache line of its own.
  alignas(64) std::vector<std::vector<QueryStage>> replicas_;
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
  /// partition. A publish before Start() also returns the error; one after
  /// it accepts the logged batch, so this counter is the only trace it
  /// leaves.
  std::vector<Counter*> apply_errors_;

  // Durability state (null when options_.persist is disabled).
  std::unique_ptr<WalWriter> wal_;
  /// Orders publishers: sequencing, the WAL append and the hand-off to the
  /// window half happen under it (before Start(), both halves do).
  std::mutex publish_mu_;

  /// The batch of a publish before Start() and its query halves' scratch,
  /// reused under publish_mu_.
  WindowedBatch inline_batch_;
  std::vector<Recommendation> inline_gathered_;

  // State of the threads Start() spawns.
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

  // The rule in the file comment. Every publish writes its reader count,
  // so it sits off the cache line of results_, which the workers write.
  alignas(64) std::shared_mutex state_mu_;
  std::atomic<bool> closed_{false};
};

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_CLUSTER_H_
