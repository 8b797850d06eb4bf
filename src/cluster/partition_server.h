// One partition server: the S shard for its resident A's and a diamond
// MotifEngine over it. Stand-alone (OnEvent) it is the paper's partition on
// its own machine, which "needs to keep the complete D data structure, since
// in principle any B can be in any partition". Inside a Cluster it runs only
// the query half (Query) over the actors the process's one D found.

#ifndef MAGICRECS_CLUSTER_PARTITION_SERVER_H_
#define MAGICRECS_CLUSTER_PARTITION_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cluster/partitioner.h"
#include "core/motif_engine.h"
#include "core/recommendation.h"
#include "graph/static_graph.h"
#include "stream/event.h"
#include "util/result.h"

namespace magicrecs {

/// The influencer cap: "for users who follow many accounts … limit the
/// number of influencers each user can have" (§2). Returns a copy of
/// `follow_graph` where each user keeps only their `cap` most-popular
/// followees (popularity = follower count; ties break toward smaller id).
/// cap == 0 returns the graph unchanged. Fails with the graph builder's
/// status if the capped graph cannot be built.
Result<StaticGraph> ApplyInfluencerCap(const StaticGraph& follow_graph,
                                       uint32_t cap);

/// Cuts the S shard for one partition out of the full follower index: the
/// follower lists restricted to the A's that `partitioner` assigns to
/// `partition_id`. The same B appears in many shards ("the same B's may
/// reside in multiple partitions"), but each A's row lives in exactly one.
Result<StaticGraph> BuildPartitionShard(const StaticGraph& full_follower_index,
                                        const HashPartitioner& partitioner,
                                        uint32_t partition_id);

/// A single partition replica. Thread-compatible: in threaded deployments
/// each replica is driven by exactly one worker thread.
class PartitionServer {
 public:
  /// Builds the S shard for `partition_id`: the follower lists of the full
  /// index restricted to A's owned by this partition.
  static Result<std::unique_ptr<PartitionServer>> Create(
      const StaticGraph& full_follower_index, const HashPartitioner& partitioner,
      uint32_t partition_id, const DiamondOptions& options);

  /// Shares a pre-built shard (used when creating replicas of the same
  /// partition: the immutable shard is built once).
  static Result<std::unique_ptr<PartitionServer>> CreateWithShard(
      std::shared_ptr<const StaticGraph> shard, uint32_t partition_id,
      const DiamondOptions& options);

  /// Stand-alone serving: runs the event's window half on this server's
  /// own D and, if `emit` is true, the query half, appending local
  /// recommendations to *out. The engine times the event when its sequence
  /// is a timing sample (IsTimingSample).
  Status OnEvent(const EdgeEvent& event, bool emit,
                 std::vector<Recommendation>* out);

  /// The query half of `event` over the actor ids another engine's window
  /// half found (MotifEngine::Query); timed like OnEvent. A Cluster calls
  /// this and leaves this server's own D empty.
  void Query(const EdgeEvent& event, std::span<const VertexId> actors,
             std::vector<Recommendation>* out);

  uint32_t partition_id() const { return partition_id_; }
  const MotifEngineStats& stats() const { return engine_->stats(); }
  const StaticGraph& shard() const { return engine_->static_index(); }
  size_t StaticMemoryUsage() const { return shard().MemoryUsage(); }

 private:
  PartitionServer(std::unique_ptr<MotifEngine> engine, uint32_t partition_id)
      : partition_id_(partition_id), engine_(std::move(engine)) {}

  uint32_t partition_id_;
  std::unique_ptr<MotifEngine> engine_;
  std::vector<VertexId> actors_;  ///< OnEvent's window-half output
};

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_PARTITION_SERVER_H_
