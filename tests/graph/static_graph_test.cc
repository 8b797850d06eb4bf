#include "graph/static_graph.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace magicrecs {
namespace {

StaticGraph BuildOrDie(StaticGraphBuilder* builder) {
  auto result = builder->Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(StaticGraphTest, EmptyGraph) {
  StaticGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.Neighbors(0).empty());
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(StaticGraphTest, BuilderProducesSortedNeighbors) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdge(0, 5).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  ASSERT_TRUE(builder.AddEdge(0, 9).ok());
  StaticGraph g = BuildOrDie(&builder);
  const auto n = g.Neighbors(0);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
  EXPECT_EQ(n[0], 2u);
  EXPECT_EQ(n[2], 9u);
}

TEST(StaticGraphTest, DuplicateEdgesDeduplicated) {
  StaticGraphBuilder builder;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  StaticGraph g = BuildOrDie(&builder);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.OutDegree(1), 1u);
}

TEST(StaticGraphTest, VertexCountInferredFromMaxId) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdge(3, 7).ok());
  StaticGraph g = BuildOrDie(&builder);
  EXPECT_EQ(g.num_vertices(), 8u);
}

TEST(StaticGraphTest, DeclaredVertexCountValidated) {
  StaticGraphBuilder builder(4);
  EXPECT_TRUE(builder.AddEdge(0, 3).ok());
  const Status s = builder.AddEdge(0, 4);
  EXPECT_TRUE(s.IsOutOfRange()) << s;
}

TEST(StaticGraphTest, InvalidVertexRejected) {
  StaticGraphBuilder builder;
  EXPECT_TRUE(builder.AddEdge(kInvalidVertex, 1).IsInvalidArgument());
  EXPECT_TRUE(builder.AddEdge(1, kInvalidVertex).IsInvalidArgument());
}

TEST(StaticGraphTest, HasEdgeBinarySearch) {
  StaticGraphBuilder builder;
  for (VertexId v = 0; v < 100; v += 2) ASSERT_TRUE(builder.AddEdge(7, v).ok());
  StaticGraph g = BuildOrDie(&builder);
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(g.HasEdge(7, v), v % 2 == 0) << v;
  }
  EXPECT_FALSE(g.HasEdge(8, 0));
  EXPECT_FALSE(g.HasEdge(1000, 0));  // out of range is safe
}

TEST(StaticGraphTest, OutOfRangeNeighborsIsEmpty) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  StaticGraph g = BuildOrDie(&builder);
  EXPECT_TRUE(g.Neighbors(12345).empty());
}

TEST(StaticGraphTest, ForEachEdgeVisitsAllInOrder) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  ASSERT_TRUE(builder.AddEdge(0, 3).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  StaticGraph g = BuildOrDie(&builder);
  std::vector<Edge> seen;
  g.ForEachEdge([&](VertexId s, VertexId d) { seen.push_back(Edge{s, d}); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (Edge{0, 1}));
  EXPECT_EQ(seen[1], (Edge{0, 3}));
  EXPECT_EQ(seen[2], (Edge{1, 2}));
}

TEST(StaticGraphTest, TransposeReversesEveryEdge) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  ASSERT_TRUE(builder.AddEdge(2, 1).ok());
  StaticGraph g = BuildOrDie(&builder);
  StaticGraph t = g.Transpose();
  EXPECT_EQ(t.num_vertices(), g.num_vertices());
  EXPECT_EQ(t.num_edges(), g.num_edges());
  EXPECT_TRUE(t.HasEdge(1, 0));
  EXPECT_TRUE(t.HasEdge(2, 0));
  EXPECT_TRUE(t.HasEdge(1, 2));
  EXPECT_FALSE(t.HasEdge(0, 1));
}

TEST(StaticGraphTest, TransposeNeighborsSorted) {
  Rng rng(3);
  StaticGraphBuilder builder(200);
  for (int i = 0; i < 2'000; ++i) {
    const VertexId s = static_cast<VertexId>(rng.UniformInt(200));
    const VertexId d = static_cast<VertexId>(rng.UniformInt(200));
    if (s != d) ASSERT_TRUE(builder.AddEdge(s, d).ok());
  }
  StaticGraph g = BuildOrDie(&builder);
  StaticGraph t = g.Transpose();
  for (VertexId v = 0; v < 200; ++v) {
    const auto n = t.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
    EXPECT_TRUE(std::adjacent_find(n.begin(), n.end()) == n.end());
  }
}

TEST(StaticGraphTest, TransposeIfWritesKeptSourcesAsTheirRanks) {
  // Sources 1, 3 and 4 are kept: they become local ids 0, 1 and 2.
  StaticGraphBuilder builder(6);
  ASSERT_TRUE(builder.AddEdges({{1, 0}, {3, 0}, {4, 0}, {2, 0}, {4, 5},
                                {3, 5}, {0, 5}})
                  .ok());
  StaticGraph g = BuildOrDie(&builder);
  const StaticGraph t =
      g.TransposeIf([](VertexId v) { return v == 1 || v == 3 || v == 4; });
  EXPECT_EQ(t.num_vertices(), 6u);
  EXPECT_EQ(t.num_edges(), 5u);
  EXPECT_EQ(t.neighbor_universe(), 3u);
  EXPECT_EQ(std::vector<VertexId>(t.local_ids().begin(), t.local_ids().end()),
            (std::vector<VertexId>{1, 3, 4}));
  const auto zero = t.Neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(zero.begin(), zero.end()),
            (std::vector<VertexId>{0, 1, 2}));
  const auto five = t.Neighbors(5);
  EXPECT_EQ(std::vector<VertexId>(five.begin(), five.end()),
            (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(t.GlobalId(2), 4u);
  EXPECT_FALSE(t.HasEdge(0, 3));  // past the local universe

  // A full transpose keeps vertex ids.
  const StaticGraph full = g.Transpose();
  EXPECT_TRUE(full.local_ids().empty());
  EXPECT_EQ(full.neighbor_universe(), 6u);
  EXPECT_EQ(full.GlobalId(4), 4u);

  // A cut that keeps nobody has an empty universe, not every vertex.
  const StaticGraph none = g.TransposeIf([](VertexId) { return false; });
  EXPECT_EQ(none.num_edges(), 0u);
  EXPECT_EQ(none.neighbor_universe(), 0u);
}

TEST(StaticGraphTest, DoubleTransposeIsIdentity) {
  Rng rng(5);
  StaticGraphBuilder builder(100);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<VertexId>(rng.UniformInt(100)),
                             static_cast<VertexId>(rng.UniformInt(100)))
                    .ok());
  }
  StaticGraph g = BuildOrDie(&builder);
  StaticGraph tt = g.Transpose().Transpose();
  std::set<std::pair<VertexId, VertexId>> original, round_trip;
  g.ForEachEdge([&](VertexId s, VertexId d) { original.insert({s, d}); });
  tt.ForEachEdge([&](VertexId s, VertexId d) { round_trip.insert({s, d}); });
  EXPECT_EQ(original, round_trip);
}

TEST(StaticGraphTest, BuilderReusableAfterBuild) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  StaticGraph first = BuildOrDie(&builder);
  EXPECT_EQ(builder.num_pending_edges(), 0u);
  ASSERT_TRUE(builder.AddEdge(2, 3).ok());
  StaticGraph second = BuildOrDie(&builder);
  EXPECT_EQ(first.num_edges(), 1u);
  EXPECT_EQ(second.num_edges(), 1u);
  EXPECT_TRUE(second.HasEdge(2, 3));
  EXPECT_FALSE(second.HasEdge(0, 1));
}

TEST(StaticGraphTest, MemoryUsageScalesWithEdges) {
  StaticGraphBuilder small_builder(10), large_builder(10);
  ASSERT_TRUE(small_builder.AddEdge(0, 1).ok());
  for (VertexId v = 0; v < 10; ++v) {
    for (VertexId u = 0; u < 10; ++u) {
      if (u != v) ASSERT_TRUE(large_builder.AddEdge(v, u).ok());
    }
  }
  StaticGraph small = BuildOrDie(&small_builder);
  StaticGraph large = BuildOrDie(&large_builder);
  EXPECT_GT(large.MemoryUsage(), small.MemoryUsage());
}

TEST(StaticGraphTest, AddEdgesBatch) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdges({{0, 1}, {1, 2}, {2, 0}}).ok());
  StaticGraph g = BuildOrDie(&builder);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(StaticGraphTest, AddEdgesStopsAtFirstError) {
  StaticGraphBuilder builder(2);
  const Status s = builder.AddEdges({{0, 1}, {0, 5}, {1, 0}});
  EXPECT_TRUE(s.IsOutOfRange());
}

}  // namespace
}  // namespace magicrecs
