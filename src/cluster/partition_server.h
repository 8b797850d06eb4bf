// One stand-alone partition server: the S shard for its resident A's and a
// diamond detector, the paper's partition on its own machine, which "needs
// to keep the complete D data structure, since in principle any B can be in
// any partition". A Cluster reads one D per process instead, and each of
// its replicas is only a QueryStage.

#ifndef MAGICRECS_CLUSTER_PARTITION_SERVER_H_
#define MAGICRECS_CLUSTER_PARTITION_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/partitioner.h"
#include "cluster/shard_cut.h"
#include "core/motif_engine.h"
#include "core/recommendation.h"
#include "graph/static_graph.h"
#include "stream/event.h"
#include "util/result.h"

namespace magicrecs {

/// A stand-alone partition: its own D (WindowStage) and a query half
/// (QueryStage) over its shard. Thread-compatible.
class PartitionServer {
 public:
  /// Builds the S shard for `partition_id`: the follower lists of the full
  /// index restricted to A's owned by this partition.
  static Result<std::unique_ptr<PartitionServer>> Create(
      const StaticGraph& full_follower_index, const HashPartitioner& partitioner,
      uint32_t partition_id, const DiamondOptions& options);

  /// Runs the event's window half on this server's D and, if `emit` is
  /// true, the query half, appending local recommendations to *out. The
  /// event is timed when its sequence is a timing sample (IsTimingSample).
  Status OnEvent(const EdgeEvent& event, bool emit,
                 std::vector<Recommendation>* out);

  const StaticGraph& shard() const { return query_.static_index(); }

 private:
  PartitionServer(const MotifPlan& plan,
                  std::shared_ptr<const StaticGraph> shard,
                  const DiamondOptions& options)
      : window_(plan, options), query_(plan, std::move(shard), options) {}

  WindowStage window_;
  QueryStage query_;
  std::vector<VertexId> actors_;  ///< OnEvent's window-half output
};

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_PARTITION_SERVER_H_
