#include "cluster/partition_server.h"

namespace magicrecs {

Result<std::unique_ptr<PartitionServer>> PartitionServer::Create(
    const StaticGraph& full_follower_index, const HashPartitioner& partitioner,
    uint32_t partition_id, const DiamondOptions& options) {
  MAGICRECS_ASSIGN_OR_RETURN(
      StaticGraph shard,
      BuildPartitionShard(full_follower_index, partitioner, partition_id));
  shard.BuildHubIndex();
  MAGICRECS_ASSIGN_OR_RETURN(const MotifPlan plan, CompileDiamond(options));
  return std::unique_ptr<PartitionServer>(new PartitionServer(
      plan, std::make_shared<const StaticGraph>(std::move(shard)), options));
}

Status PartitionServer::OnEvent(const EdgeEvent& event, bool emit,
                                std::vector<Recommendation>* out) {
  const TimestampedEdge& e = event.edge;
  const bool timed = IsTimingSample(event.sequence);
  actors_.clear();
  MAGICRECS_RETURN_IF_ERROR(window_.Window(e.src, e.dst, e.created_at, &actors_,
                                           MotifAction::kFollow, timed));
  if (emit) query_.Query(e.src, e.dst, e.created_at, actors_, out, timed);
  return Status::OK();
}

}  // namespace magicrecs
