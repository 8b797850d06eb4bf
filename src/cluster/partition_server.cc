#include "cluster/partition_server.h"

#include <algorithm>

namespace magicrecs {

Result<StaticGraph> ApplyInfluencerCap(const StaticGraph& follow_graph,
                                       uint32_t cap) {
  if (cap == 0) return follow_graph;

  // Popularity = follower count = in-degree in the follow graph.
  std::vector<uint32_t> in_degree(follow_graph.num_vertices(), 0);
  follow_graph.ForEachEdge(
      [&](VertexId, VertexId dst) { ++in_degree[dst]; });

  StaticGraphBuilder builder(follow_graph.num_vertices());
  std::vector<VertexId> followees;
  for (size_t v = 0; v < follow_graph.num_vertices(); ++v) {
    const VertexId src = static_cast<VertexId>(v);
    const auto neighbors = follow_graph.Neighbors(src);
    if (neighbors.size() <= cap) {
      for (const VertexId dst : neighbors) {
        MAGICRECS_RETURN_IF_ERROR(builder.AddEdge(src, dst));
      }
      continue;
    }
    followees.assign(neighbors.begin(), neighbors.end());
    std::partial_sort(followees.begin(),
                      followees.begin() + static_cast<std::ptrdiff_t>(cap),
                      followees.end(), [&](VertexId a, VertexId b) {
                        if (in_degree[a] != in_degree[b]) {
                          return in_degree[a] > in_degree[b];
                        }
                        return a < b;
                      });
    for (uint32_t i = 0; i < cap; ++i) {
      MAGICRECS_RETURN_IF_ERROR(builder.AddEdge(src, followees[i]));
    }
  }
  return builder.Build();
}

Result<StaticGraph> BuildPartitionShard(const StaticGraph& full_follower_index,
                                        const HashPartitioner& partitioner,
                                        uint32_t partition_id) {
  if (partition_id >= partitioner.num_partitions()) {
    return Status::InvalidArgument("partition id out of range");
  }
  StaticGraphBuilder builder(full_follower_index.num_vertices());
  Status status = Status::OK();
  full_follower_index.ForEachEdge([&](VertexId b, VertexId a) {
    if (!status.ok()) return;
    if (partitioner.PartitionOf(a) == partition_id) {
      status = builder.AddEdge(b, a);
    }
  });
  MAGICRECS_RETURN_IF_ERROR(status);
  return builder.Build();
}

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
