// The offline cuts of S: the influencer cap applied to the follow graph,
// and one partition's shard of the follower index. Cluster::Create cuts its
// hosted shards with StaticGraph::TransposeIf instead; BuildPartitionShard
// is the reference cut it must equal (tests/cluster/shard_cut_test.cc).

#ifndef MAGICRECS_CLUSTER_SHARD_CUT_H_
#define MAGICRECS_CLUSTER_SHARD_CUT_H_

#include <cstdint>

#include "cluster/partitioner.h"
#include "graph/static_graph.h"
#include "util/result.h"

namespace magicrecs {

/// The influencer cap: "for users who follow many accounts … limit the
/// number of influencers each user can have" (§2). Returns a copy of
/// `follow_graph` where each user keeps only their `cap` most-popular
/// followees (popularity = follower count; ties break toward smaller id).
/// cap == 0 returns the graph unchanged.
Result<StaticGraph> ApplyInfluencerCap(const StaticGraph& follow_graph,
                                       uint32_t cap);

/// Cuts the S shard for one partition out of the full follower index: the
/// follower lists restricted to the A's that `partitioner` assigns to
/// `partition_id`. The same B appears in many shards ("the same B's may
/// reside in multiple partitions"), but each A's row lives in exactly one.
Result<StaticGraph> BuildPartitionShard(const StaticGraph& full_follower_index,
                                        const HashPartitioner& partitioner,
                                        uint32_t partition_id);

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_SHARD_CUT_H_
