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
// last call. Counts travel only as the GetStatsText exposition; placement()
// is what the RPC server puts in its hello reply. Broker-only calls (the
// gather coverage report, traces, health) live on FanoutCluster.

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

/// Where an endpoint sits in the deployment: the hello reply carries it,
/// so a fan-out broker checks a daemon's placement on every dial.
struct Placement {
  /// `partition` of an endpoint that hosts every partition.
  static constexpr uint32_t kAllPartitions = UINT32_MAX;

  uint32_t group_size = 0;  ///< deployment-wide partition count
  uint32_t partition = kAllPartitions;  ///< the one hosted global partition
  uint64_t salt = 0;        ///< the HashPartitioner salt

  friend bool operator==(const Placement&, const Placement&) = default;
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

  /// This endpoint's placement. Fixed at construction; the RPC server
  /// reads it once and sends it in every hello reply.
  virtual Placement placement() const = 0;

  /// The text exposition of every metric this endpoint knows (see
  /// docs/observability.md for the format), and its only stats surface.
  /// The default renders the process-wide MetricsRegistry; Cluster mirrors
  /// its detector and per-replica counters into it first, and the fan-out
  /// broker pulls the remote surface too. Serves the kStatsText RPC.
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
