// The transport seam between a publisher and the partitioned cluster.
//
// The paper's production deployment is ~20 partition servers on separate
// machines behind a fan-out broker; this repo started with a single-process
// Cluster object whose "distributed" mode was std::thread. ClusterTransport
// is the boundary the RPC server dispatches through and the benches and
// tests drive. It has one implementation on each side of the wire:
//
//   * Cluster (cluster/cluster.h) — the in-process deployment. Never
//                                   started, each publish applies before it
//                                   returns; after Start(), a window thread
//                                   and one worker per replica run it,
//   * FanoutCluster (src/net/)    — magicrecsd processes over TCP (one
//                                   all-hosting daemon, or a group),
//
// and drivers run against either without knowing which one they have. The
// contract is publish/drain/gather: PublishBatch delivers events to every
// partition, Drain blocks until all published events are fully processed,
// TakeRecommendations moves out what the motif queries emitted since the
// last call. Broker-only calls (the gather coverage report, traces, health,
// placement) live on FanoutCluster.

#ifndef MAGICRECS_CLUSTER_TRANSPORT_H_
#define MAGICRECS_CLUSTER_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_options.h"
#include "core/recommendation.h"
#include "stream/event.h"
#include "util/result.h"
#include "util/status.h"
#include "util/types.h"

namespace magicrecs {

class StaticGraph;

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

/// Broker-side liveness of one partition's daemon across gathers. A
/// consecutive count of 0 means the daemon answered the most recent
/// TakeRecommendations; anything else is how stale that partition's
/// recommendations currently are, measured in missed gathers.
struct PartitionHealth {
  /// Global partition id, or UINT32_MAX for an all-hosting daemon.
  uint32_t partition = 0;
  uint64_t gathers_missed_total = 0;
  uint64_t gathers_missed_consecutive = 0;

  friend bool operator==(const PartitionHealth&,
                         const PartitionHealth&) = default;

  /// e.g. "p3 missed=2 (consecutive=1)".
  std::string ToString() const;
};

/// Cluster-wide counters as reported over the stats RPC. A flat POD rather
/// than MotifEngineStats so it has a stable wire encoding.
struct ClusterStats {
  uint32_t num_partitions = 0;       ///< deployment-wide (full group)
  uint32_t replicas_per_partition = 0;
  uint64_t events_published = 0;     ///< broker-side publish count
  uint64_t detector_events = 0;      ///< D ingests (one D per process)
  uint64_t threshold_queries = 0;    ///< motif queries summed over replicas
  uint64_t recommendations = 0;      ///< emitted recommendations (sum)
  uint64_t static_memory_bytes = 0;  ///< all S shards
  uint64_t dynamic_memory_bytes = 0; ///< D (one per process)

  /// Identity-tagged counters, one entry per hosted replica, ordered by
  /// (partition, replica). A partition-group daemon reports only its own
  /// shard here, so stats merged from many daemons stay attributable.
  std::vector<ReplicaStats> per_replica;

  /// The hash-partitioner salt placement was computed with. Lets a fan-out
  /// broker detect a daemon whose placement disagrees with its own
  /// (FanoutCluster::Ping verifies it).
  uint64_t partitioner_salt = 0;

  // --- degraded-mode broker counters -----------------------------------------
  // Filled only by a fan-out broker (net/fanout_cluster.h), from its own
  // registry's broker_* counters; always zero on in-process transports and
  // daemons, and deliberately NOT carried on the stats wire — they
  // describe the broker, not the cluster behind it.

  /// Gathers that returned successfully with >= 1 partition missing.
  uint64_t degraded_gathers = 0;

  /// Events delivered from a replay buffer after a daemon came back.
  uint64_t replayed_events = 0;

  /// Events dropped because a daemon's replay buffer overflowed (or the
  /// daemon rejected a replayed frame).
  uint64_t replay_dropped_events = 0;

  /// Recommendations currently parked in the partial-gather rescue buffer.
  uint64_t rescued_recommendations = 0;

  /// Recommendations dropped because the rescue buffer overflowed.
  uint64_t rescue_dropped = 0;

  /// Per-partition gather staleness, ordered by partition (broker only).
  std::vector<PartitionHealth> partition_health;

  friend bool operator==(const ClusterStats&, const ClusterStats&) = default;

  /// The aggregate counters on one line (per_replica not included).
  std::string ToString() const;

  /// One line per per_replica entry, e.g. for an operator stats dump.
  std::string PerReplicaString() const;
};

/// Abstract cluster endpoint. Implementations are thread-safe: the RPC
/// server drives one transport from several connection handler threads.
class ClusterTransport {
 public:
  virtual ~ClusterTransport() = default;

  /// Delivers a batch, in order, to every partition. The transport assigns
  /// the sequence numbers; any caller-provided value is ignored.
  virtual Status PublishBatch(std::span<const EdgeEvent> events) = 0;

  /// One event: a batch of one.
  Status Publish(const EdgeEvent& event) {
    return PublishBatch(std::span<const EdgeEvent>(&event, 1));
  }

  /// Blocks until every event published so far is fully processed.
  virtual Status Drain() = 0;

  /// Moves out all recommendations gathered since the last call. Ordering
  /// across partitions is unspecified.
  virtual Result<std::vector<Recommendation>> TakeRecommendations() = 0;

  /// Snapshots the durable state (see Cluster::Checkpoint).
  virtual Status Checkpoint(Timestamp created_at) = 0;

  /// Failure injection (see Cluster::KillReplica / RecoverReplica).
  virtual Status KillReplica(uint32_t partition, uint32_t replica) = 0;
  virtual Status RecoverReplica(uint32_t partition, uint32_t replica) = 0;

  virtual Result<ClusterStats> GetStats() = 0;

  /// The text exposition of every metric this endpoint knows (see
  /// docs/observability.md for the format). The default renders the
  /// process-wide MetricsRegistry; Cluster mirrors its detector counters
  /// into it first, and the fan-out broker pulls the remote surface too.
  /// Serves the kStatsText RPC.
  virtual Result<std::string> GetStatsText();

  /// Releases the transport's resources (joins workers, closes the
  /// connection). Idempotent; called by the destructor.
  virtual Status Close() = 0;
};

/// Kept only for bench_serving/bench_serving.cc, its only caller: the
/// serving benchmark is frozen with its reference digest built through this
/// name. Create is Cluster::Create, never started. Cluster is the in-process
/// transport; new code calls it directly.
struct LocalClusterTransport {
  enum class Mode { kInline };
  static Result<std::unique_ptr<ClusterTransport>> Create(
      const StaticGraph& follow_graph, const ClusterOptions& options,
      Mode mode);
};

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_TRANSPORT_H_
