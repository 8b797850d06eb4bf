// Quickstart: the paper's Figure 1, end to end, in ~60 lines.
//
// Builds the eight-vertex sample fragment, streams the four dynamic edges
// through the diamond MotifEngine with k = 2, and shows that the arrival of
// B2 -> C2 produces exactly one recommendation: "push C2 to A2".
//
//   $ ./quickstart

#include <cstdio>

#include "core/motif_engine.h"
#include "gen/figure1.h"

using namespace magicrecs;

int main() {
  std::printf("magicrecs quickstart: the paper's Figure 1 (k = 2)\n\n");

  // 1. The static follow graph (the A -> B edges, loaded offline).
  const StaticGraph follow_graph = figure1::FollowGraph();
  std::printf("static follow edges:\n");
  follow_graph.ForEachEdge([](VertexId a, VertexId b) {
    std::printf("  %s follows %s\n", figure1::Name(a).data(),
                figure1::Name(b).data());
  });

  // 2. The engine: inverts the follow graph into the follower index (S) and
  //    maintains the dynamic in-edge index (D) as events arrive.
  DiamondOptions options;
  options.k = 2;                 // the paper's worked example
  options.window = Minutes(10);  // freshness window tau
  auto engine = MotifEngine::Create(
      follow_graph, MakeDiamondSpec(options.k, options.window), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine creation failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // 3. Stream the dynamic edges (the B -> C follows) in real-time order.
  std::printf("\nreal-time edge stream:\n");
  std::vector<Recommendation> recommendations;
  for (const TimestampedEdge& edge : figure1::DynamicEdges(0)) {
    const size_t before = recommendations.size();
    const Status status = (*engine)->OnEdge(edge.src, edge.dst,
                                            edge.created_at, &recommendations);
    if (!status.ok()) {
      std::fprintf(stderr, "OnEdge failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("  t=%2lds  %s -> %s%s\n",
                static_cast<long>(edge.created_at / kMicrosPerSecond),
                figure1::Name(edge.src).data(), figure1::Name(edge.dst).data(),
                recommendations.size() > before ? "   <-- motif completed!"
                                                : "");
  }

  // 4. The result.
  std::printf("\nrecommendations:\n");
  for (const Recommendation& rec : recommendations) {
    std::printf("  push %s to %s (witnesses:", figure1::Name(rec.item).data(),
                figure1::Name(rec.user).data());
    for (const VertexId w : rec.witnesses) {
      std::printf(" %s", figure1::Name(w).data());
    }
    std::printf(")\n");
  }
  std::printf("\ndetector stats: %s\n",
              (*engine)->stats().ToString().c_str());
  return recommendations.size() == 1 ? 0 : 1;
}
