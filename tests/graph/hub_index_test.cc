// Tests for StaticGraph's hybrid bitset/array hub index: threshold
// selection, bitmap contents, the HasEdge fast path, and the auto-threshold
// policy AutoHubDegreeThreshold encodes.

#include "graph/static_graph.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "intersect/bitset.h"
#include "util/random.h"

namespace magicrecs {
namespace {

StaticGraph BuildGraph(size_t num_vertices,
                       const std::vector<std::pair<VertexId, VertexId>>& edges) {
  StaticGraphBuilder builder(num_vertices);
  for (const auto& [src, dst] : edges) {
    const Status s = builder.AddEdge(src, dst);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  auto result = builder.Build();
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

/// A graph where vertex 0 is a clear hub (follows everyone) and the rest
/// have small degree.
StaticGraph HubAndTail(size_t n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back({0, v});
  for (VertexId v = 1; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return BuildGraph(n, edges);
}

TEST(AutoHubDegreeThresholdTest, FloorsAtKMinHubDegree) {
  EXPECT_EQ(AutoHubDegreeThreshold(0), kMinHubDegree);
  EXPECT_EQ(AutoHubDegreeThreshold(1'000), kMinHubDegree);
  EXPECT_EQ(AutoHubDegreeThreshold(32 * kMinHubDegree), kMinHubDegree);
}

TEST(AutoHubDegreeThresholdTest, ScalesAsVertexCountOver32) {
  // Above the floor, the policy is num_vertices/32: a hub's bitmap
  // (num_vertices/8 bytes) then costs at most 2x its array (4*degree).
  EXPECT_EQ(AutoHubDegreeThreshold(64 * kMinHubDegree), 2 * kMinHubDegree);
  EXPECT_EQ(AutoHubDegreeThreshold(1'000'000), 1'000'000 / 32);
}

TEST(HubIndexTest, UnbuiltGraphHasNoHubs) {
  StaticGraph g = HubAndTail(600);
  EXPECT_FALSE(g.has_hub_index());
  EXPECT_EQ(g.num_hubs(), 0u);
  EXPECT_FALSE(g.IsHub(0));
  EXPECT_TRUE(g.HubBitset(0).empty());
}

TEST(HubIndexTest, IndexesOnlyVerticesAboveThreshold) {
  StaticGraph g = HubAndTail(600);
  g.BuildHubIndex(100);
  EXPECT_TRUE(g.has_hub_index());
  EXPECT_EQ(g.hub_degree_threshold(), 100u);
  EXPECT_EQ(g.num_hubs(), 1u);
  EXPECT_TRUE(g.IsHub(0));
  EXPECT_FALSE(g.IsHub(1));
  EXPECT_TRUE(g.HubBitset(1).empty());
  EXPECT_TRUE(g.HubBitset(static_cast<VertexId>(g.num_vertices())).empty());
}

TEST(HubIndexTest, BitmapMatchesAdjacencyList) {
  StaticGraph g = HubAndTail(600);
  g.BuildHubIndex(100);
  const BitsetView bits = g.HubBitset(0);
  ASSERT_FALSE(bits.empty());
  const auto neighbors = g.Neighbors(0);
  const std::set<VertexId> expected(neighbors.begin(), neighbors.end());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(bits.Test(v), expected.count(v) > 0) << "vertex " << v;
  }
  // Ids beyond the universe are never set.
  EXPECT_FALSE(bits.Test(static_cast<VertexId>(g.num_vertices() + 1'000)));
}

TEST(HubIndexTest, HasEdgeAgreesWithAndWithoutIndex) {
  Rng rng(99);
  StaticGraphBuilder builder(300);
  std::set<std::pair<VertexId, VertexId>> edge_set;
  // Vertex 7 is dense; everyone else sparse.
  for (int i = 0; i < 2'000; ++i) {
    const VertexId src =
        rng.Bernoulli(0.5) ? 7 : static_cast<VertexId>(rng.UniformInt(300));
    const VertexId dst = static_cast<VertexId>(rng.UniformInt(300));
    edge_set.insert({src, dst});
    ASSERT_TRUE(builder.AddEdge(src, dst).ok());
  }
  auto result = builder.Build();
  ASSERT_TRUE(result.ok());
  StaticGraph g = std::move(result).value();

  StaticGraphBuilder b2(300);
  for (const auto& [src, dst] : edge_set) {
    ASSERT_TRUE(b2.AddEdge(src, dst).ok());
  }
  auto r2 = b2.Build();
  ASSERT_TRUE(r2.ok());
  StaticGraph indexed = std::move(r2).value();
  indexed.BuildHubIndex(50);
  ASSERT_TRUE(indexed.IsHub(7));

  for (VertexId src = 0; src < 300; ++src) {
    for (int probe = 0; probe < 20; ++probe) {
      const VertexId dst = static_cast<VertexId>(rng.UniformInt(310));
      EXPECT_EQ(indexed.HasEdge(src, dst), g.HasEdge(src, dst))
          << src << " -> " << dst;
      EXPECT_EQ(indexed.HasEdge(src, dst), edge_set.count({src, dst}) > 0)
          << src << " -> " << dst;
    }
  }
}

TEST(HubIndexTest, AutoThresholdSmallGraphsStayBitmapFree) {
  // 600 vertices: auto threshold = max(256, 600/32) = 256, and the densest
  // vertex has degree 599 — so vertex 0 qualifies. A tail vertex does not.
  StaticGraph g = HubAndTail(600);
  g.BuildHubIndex();
  EXPECT_EQ(g.hub_degree_threshold(), kMinHubDegree);
  EXPECT_TRUE(g.IsHub(0));
  EXPECT_EQ(g.num_hubs(), 1u);

  // A small sparse graph gets an (empty) index without crashing.
  StaticGraph tiny = BuildGraph(4, {{0, 1}, {1, 2}});
  tiny.BuildHubIndex();
  EXPECT_EQ(tiny.num_hubs(), 0u);
  EXPECT_FALSE(tiny.IsHub(0));
}

TEST(HubIndexTest, RebuildWithSameThresholdIsIdempotent) {
  StaticGraph g = HubAndTail(600);
  g.BuildHubIndex(100);
  const size_t hubs = g.num_hubs();
  const size_t mem = g.MemoryUsage();
  g.BuildHubIndex(100);  // no-op
  EXPECT_EQ(g.num_hubs(), hubs);
  EXPECT_EQ(g.MemoryUsage(), mem);
  // A different threshold rebuilds.
  g.BuildHubIndex(1'000);
  EXPECT_EQ(g.num_hubs(), 0u);
  EXPECT_EQ(g.hub_degree_threshold(), 1'000u);
}

TEST(HubIndexTest, MemoryUsageGrowsWithArena) {
  StaticGraph g = HubAndTail(600);
  const size_t before = g.MemoryUsage();
  g.BuildHubIndex(100);
  EXPECT_GT(g.MemoryUsage(), before);
}

TEST(HubIndexTest, HubBitsetMembershipMatchesNeighbors) {
  // The probe candidate verification runs: a hub's bitmap answers exactly
  // what a search of its sorted list would, for every vertex.
  Rng rng(1234);
  StaticGraphBuilder builder(512);
  for (int i = 0; i < 6'000; ++i) {
    const VertexId src = static_cast<VertexId>(rng.UniformInt(2));  // 0 or 1
    const VertexId dst = static_cast<VertexId>(rng.UniformInt(512));
    ASSERT_TRUE(builder.AddEdge(src, dst).ok());
  }
  auto result = builder.Build();
  ASSERT_TRUE(result.ok());
  StaticGraph g = std::move(result).value();
  g.BuildHubIndex(64);
  for (const VertexId v : {VertexId{0}, VertexId{1}}) {
    ASSERT_TRUE(g.IsHub(v));
    const BitsetView bits = g.HubBitset(v);
    const auto list = g.Neighbors(v);
    for (VertexId u = 0; u < 512; ++u) {
      EXPECT_EQ(bits.Test(u), std::binary_search(list.begin(), list.end(), u))
          << "hub " << v << " vertex " << u;
    }
  }
}

}  // namespace
}  // namespace magicrecs
