#include "cluster/partition_server.h"

#include <gtest/gtest.h>

#include "gen/figure1.h"

namespace magicrecs {
namespace {

DiamondOptions Defaults(uint32_t k) {
  DiamondOptions opt;
  opt.k = k;
  opt.window = Minutes(10);
  return opt;
}

EdgeEvent MakeEvent(const TimestampedEdge& e) {
  EdgeEvent event;
  event.edge = e;
  return event;
}

TEST(InfluencerCapTest, ZeroCapKeepsEverything) {
  const StaticGraph g = figure1::FollowGraph();
  auto capped = ApplyInfluencerCap(g, 0);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(capped->num_edges(), g.num_edges());
}

TEST(InfluencerCapTest, CapKeepsMostPopularFollowees) {
  // A0 follows B1 (1 follower), B2 (2 followers), B3 (3 followers).
  StaticGraphBuilder builder(10);
  ASSERT_TRUE(builder.AddEdges({{0, 1}, {0, 2}, {0, 3}}).ok());
  ASSERT_TRUE(builder.AddEdges({{4, 2}, {4, 3}, {5, 3}}).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());

  auto capped = ApplyInfluencerCap(*g, 2);
  ASSERT_TRUE(capped.ok()) << capped.status();
  // A0 keeps B3 (3 followers) and B2 (2 followers); drops B1.
  EXPECT_TRUE(capped->HasEdge(0, 3));
  EXPECT_TRUE(capped->HasEdge(0, 2));
  EXPECT_FALSE(capped->HasEdge(0, 1));
  // Users under the cap are untouched.
  EXPECT_EQ(capped->OutDegree(4), 2u);
  EXPECT_EQ(capped->OutDegree(5), 1u);
}

TEST(InfluencerCapTest, CapShrinksSMemory) {
  StaticGraphBuilder builder(100);
  for (VertexId b = 1; b < 60; ++b) ASSERT_TRUE(builder.AddEdge(0, b).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto capped = ApplyInfluencerCap(*g, 10);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(capped->OutDegree(0), 10u);
  EXPECT_LT(capped->MemoryUsage(), g->MemoryUsage());
}

TEST(InfluencerCapTest, TieBreaksTowardSmallerId) {
  // B1 and B2 both have zero followers; cap 1 keeps the smaller id.
  StaticGraphBuilder builder(5);
  ASSERT_TRUE(builder.AddEdges({{0, 2}, {0, 1}}).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto capped = ApplyInfluencerCap(*g, 1);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_TRUE(capped->HasEdge(0, 1));
  EXPECT_FALSE(capped->HasEdge(0, 2));
}

TEST(BuildPartitionShardTest, ShardsPartitionFollowerRows) {
  const StaticGraph follower_index = figure1::FollowGraph().Transpose();
  HashPartitioner partitioner(2);
  auto shard0 = BuildPartitionShard(follower_index, partitioner, 0);
  auto shard1 = BuildPartitionShard(follower_index, partitioner, 1);
  ASSERT_TRUE(shard0.ok() && shard1.ok());
  // Every follower-list entry lands in exactly one shard.
  EXPECT_EQ(shard0->num_edges() + shard1->num_edges(),
            follower_index.num_edges());
  shard0->ForEachEdge([&](VertexId, VertexId a) {
    EXPECT_EQ(partitioner.PartitionOf(a), 0u);
  });
  shard1->ForEachEdge([&](VertexId, VertexId a) {
    EXPECT_EQ(partitioner.PartitionOf(a), 1u);
  });
}

TEST(BuildPartitionShardTest, OutOfRangePartitionRejected) {
  const StaticGraph follower_index = figure1::FollowGraph().Transpose();
  HashPartitioner partitioner(2);
  EXPECT_TRUE(BuildPartitionShard(follower_index, partitioner, 5)
                  .status()
                  .IsInvalidArgument());
}

TEST(PartitionServerTest, DetectsOnlyForLocalUsers) {
  const StaticGraph follower_index = figure1::FollowGraph().Transpose();
  HashPartitioner partitioner(4);
  const uint32_t a2_partition = partitioner.PartitionOf(figure1::kA2);

  std::vector<Recommendation> all;
  for (uint32_t p = 0; p < 4; ++p) {
    auto server =
        PartitionServer::Create(follower_index, partitioner, p, Defaults(2));
    ASSERT_TRUE(server.ok());
    std::vector<Recommendation> local;
    for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
      ASSERT_TRUE((*server)->OnEvent(MakeEvent(e), /*emit=*/true, &local).ok());
    }
    for (const auto& rec : local) {
      // Each partition only recommends to its own residents.
      EXPECT_EQ(partitioner.PartitionOf(rec.user), p);
    }
    if (p == a2_partition) {
      ASSERT_EQ(local.size(), 1u);
      EXPECT_EQ(local[0].user, figure1::kA2);
    } else {
      EXPECT_TRUE(local.empty());
    }
    all.insert(all.end(), local.begin(), local.end());
  }
  EXPECT_EQ(all.size(), 1u);
}

TEST(PartitionServerTest, StandbyIngestKeepsDWarm) {
  const StaticGraph follower_index = figure1::FollowGraph().Transpose();
  HashPartitioner partitioner(1);
  auto primary =
      PartitionServer::Create(follower_index, partitioner, 0, Defaults(2));
  ASSERT_TRUE(primary.ok());

  const auto edges = figure1::DynamicEdges(0);
  std::vector<Recommendation> out;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    ASSERT_TRUE(
        (*primary)->OnEvent(MakeEvent(edges[i]), /*emit=*/false, &out).ok());
  }
  EXPECT_TRUE(out.empty());
  // The trigger with emit=true finds the warm state.
  ASSERT_TRUE(
      (*primary)->OnEvent(MakeEvent(edges.back()), /*emit=*/true, &out).ok());
  ASSERT_EQ(out.size(), 1u);
}

TEST(PartitionServerTest, SharedShardReplicasAreIndependent) {
  const StaticGraph follower_index = figure1::FollowGraph().Transpose();
  HashPartitioner partitioner(1);
  auto shard = BuildPartitionShard(follower_index, partitioner, 0);
  ASSERT_TRUE(shard.ok());
  auto shared = std::make_shared<const StaticGraph>(std::move(shard).value());
  auto r0 = PartitionServer::CreateWithShard(shared, 0, Defaults(2));
  auto r1 = PartitionServer::CreateWithShard(shared, 0, Defaults(2));
  ASSERT_TRUE(r0.ok() && r1.ok());

  std::vector<Recommendation> out;
  ASSERT_TRUE(
      (*r0)->OnEvent(MakeEvent({figure1::kB1, figure1::kC2, 1}), true, &out)
          .ok());
  // r1's D never saw the edge, but both read the one shared shard.
  EXPECT_EQ((*r0)->stats().events, 1u);
  EXPECT_EQ((*r1)->stats().events, 0u);
  EXPECT_EQ(&(*r0)->shard(), shared.get());
  EXPECT_EQ(&(*r1)->shard(), shared.get());
}

TEST(PartitionServerTest, MemoryAccountedPerReplica) {
  const StaticGraph follower_index = figure1::FollowGraph().Transpose();
  HashPartitioner partitioner(1);
  auto server =
      PartitionServer::Create(follower_index, partitioner, 0, Defaults(2));
  ASSERT_TRUE(server.ok());
  EXPECT_GT((*server)->StaticMemoryUsage(), 0u);
}

}  // namespace
}  // namespace magicrecs
