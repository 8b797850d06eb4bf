#include "core/engine.h"

#include <algorithm>
#include <numeric>

namespace magicrecs {

Result<std::unique_ptr<RecommenderEngine>> RecommenderEngine::Create(
    const StaticGraph& follow_graph, const EngineOptions& options) {
  MAGICRECS_ASSIGN_OR_RETURN(
      const StaticGraph capped,
      ApplyInfluencerCap(follow_graph, options.max_influencers_per_user));
  return CreateFromFollowerIndex(capped.Transpose(), options);
}

Result<std::unique_ptr<RecommenderEngine>>
RecommenderEngine::CreateFromFollowerIndex(StaticGraph follower_index,
                                           const EngineOptions& options) {
  follower_index.BuildHubIndex();
  MAGICRECS_ASSIGN_OR_RETURN(
      std::unique_ptr<MotifEngine> engine,
      MotifEngine::CreateDiamond(
          std::make_shared<const StaticGraph>(std::move(follower_index)),
          options.detector));
  return std::unique_ptr<RecommenderEngine>(
      new RecommenderEngine(options, std::move(engine)));
}

Result<StaticGraph> RecommenderEngine::ApplyInfluencerCap(
    const StaticGraph& follow_graph, uint32_t cap) {
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

}  // namespace magicrecs
