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

  // Each user's row keeps its `cap` most popular followees; FromRows sorts
  // the rows.
  const size_t v = follow_graph.num_vertices();
  std::vector<uint64_t> offsets(v + 1, 0);
  for (size_t src = 0; src < v; ++src) {
    offsets[src + 1] =
        offsets[src] + std::min<uint64_t>(
                           follow_graph.OutDegree(static_cast<VertexId>(src)),
                           cap);
  }
  std::vector<VertexId> targets(offsets[v]);
  std::vector<VertexId> followees;
  for (size_t src = 0; src < v; ++src) {
    const auto neighbors = follow_graph.Neighbors(static_cast<VertexId>(src));
    const auto out = targets.begin() + static_cast<std::ptrdiff_t>(offsets[src]);
    if (neighbors.size() <= cap) {
      std::copy(neighbors.begin(), neighbors.end(), out);
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
    std::copy(followees.begin(),
              followees.begin() + static_cast<std::ptrdiff_t>(cap), out);
  }
  return StaticGraph::FromRows(std::move(offsets), std::move(targets));
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
