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

TEST(PartitionServerTest, MemoryAccountedPerReplica) {
  const StaticGraph follower_index = figure1::FollowGraph().Transpose();
  HashPartitioner partitioner(1);
  auto server =
      PartitionServer::Create(follower_index, partitioner, 0, Defaults(2));
  ASSERT_TRUE(server.ok());
  EXPECT_GT((*server)->shard().MemoryUsage(), 0u);
}

}  // namespace
}  // namespace magicrecs
