// One partition server: the S shard for its resident A's, a full copy of the
// D structure, and a diamond MotifEngine running against them. Mirrors the
// paper's key design decision — "each partition needs to keep the complete D
// data structure, since in principle any B can be in any partition", so every
// server ingests the entire edge stream and all intersections stay local.

#ifndef MAGICRECS_CLUSTER_PARTITION_SERVER_H_
#define MAGICRECS_CLUSTER_PARTITION_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// partition: the immutable shard is built once, D is per-replica).
  static Result<std::unique_ptr<PartitionServer>> CreateWithShard(
      std::shared_ptr<const StaticGraph> shard, uint32_t partition_id,
      const DiamondOptions& options);

  /// Ingests one event into D; if `emit` is true, also runs the motif query
  /// and appends local recommendations to *out. Standby replicas ingest with
  /// emit=false to keep D warm without duplicating query work. The engine
  /// times the event when its sequence is a timing sample (IsTimingSample).
  Status OnEvent(const EdgeEvent& event, bool emit,
                 std::vector<Recommendation>* out);

  uint32_t partition_id() const { return partition_id_; }
  const MotifEngineStats& stats() const { return engine_->stats(); }
  const StaticGraph& shard() const { return engine_->static_index(); }
  size_t StaticMemoryUsage() const { return shard().MemoryUsage(); }
  size_t DynamicMemoryUsage() const { return engine_->DynamicMemoryUsage(); }

  /// 1 + the sequence of the last event applied to this replica (0 if
  /// none). Checkpointing uses this as the snapshot's coverage cutoff.
  uint64_t next_sequence() const { return next_sequence_; }

  /// Re-synchronizes this replica's dynamic state from a healthy peer of the
  /// same partition (replica bootstrap after recovery).
  Status SyncDynamicStateFrom(const PartitionServer& healthy_peer);

  // Durability hooks (see src/persist/recovery.h). D is per-replica state
  // inside the engine; the immutable S shard is rebuilt offline, not
  // persisted here.
  const MotifEngine& motif_engine() const { return *engine_; }
  MotifEngine& motif_engine() { return *engine_; }
  /// Where live ingest resumes after recovery rebuilt D through
  /// motif_engine().
  void set_next_sequence(uint64_t next_sequence) {
    next_sequence_ = next_sequence;
  }

 private:
  PartitionServer(std::unique_ptr<MotifEngine> engine, uint32_t partition_id)
      : partition_id_(partition_id), engine_(std::move(engine)) {}

  uint32_t partition_id_;
  std::unique_ptr<MotifEngine> engine_;
  uint64_t next_sequence_ = 0;
};

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_PARTITION_SERVER_H_
