// Configuration of a Cluster (cluster/cluster.h): partition and replica
// layout, detector parameters, backpressure, partition-group placement and
// durability.

#ifndef MAGICRECS_CLUSTER_CLUSTER_OPTIONS_H_
#define MAGICRECS_CLUSTER_CLUSTER_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "core/motif_plan.h"
#include "persist/persist_options.h"

namespace magicrecs {

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

  /// Backpressure after Start(): the window thread's inbox holds up to
  /// half of this in events, each replica inbox up to half in events plus
  /// their actor ids. A batch larger than a half enters an empty inbox alone.
  /// Must be >= 1.
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
  /// published event, Checkpoint() writes snapshots of D there, and
  /// Create() restores D from them on restart.
  PersistOptions persist;
};

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_CLUSTER_OPTIONS_H_
