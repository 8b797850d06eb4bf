// The offline cuts of S (cluster/shard_cut.h): the influencer cap and
// BuildPartitionShard, and the cut Cluster::Create makes instead.
//
// Cluster::Create cuts each hosted shard straight from the follow graph
// with StaticGraph::TransposeIf. Every shard must equal the offline cut it
// replaces: BuildPartitionShard over the transpose of the capped follow
// graph, hub index included. Random graphs, 1-5 partitions, all-hosting and
// partition-group mode, caps 0, 2 and 10.
//
// The graphs are seeded; failures print the seed, rerun with
// MAGICRECS_FUZZ_SEED=<seed>.

#include <algorithm>
#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/shard_cut.h"
#include "gen/figure1.h"
#include "util/random.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

uint64_t BaseSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 97;
}

constexpr int kGraphs = 12;

/// A random follow graph. Every other graph has a celebrity most users
/// follow, so shards have rows past the hub-index threshold.
StaticGraph RandomFollowGraph(Rng& rng, bool with_celebrity) {
  const uint64_t users = 1 + rng.UniformInt(with_celebrity ? 1'500 : 200);
  StaticGraphBuilder builder;
  const uint64_t edges = rng.UniformInt(users * 12);
  for (uint64_t i = 0; i < edges; ++i) {
    EXPECT_TRUE(builder
                    .AddEdge(static_cast<VertexId>(rng.UniformInt(users)),
                             static_cast<VertexId>(rng.UniformInt(users)))
                    .ok());
  }
  if (with_celebrity) {
    for (uint64_t a = 1; a < users; ++a) {
      if (rng.Bernoulli(0.9)) {
        EXPECT_TRUE(builder.AddEdge(static_cast<VertexId>(a), 0).ok());
      }
    }
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Same vertex count, rows and hub index.
::testing::AssertionResult SameShard(const StaticGraph& a,
                                     const StaticGraph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return ::testing::AssertionFailure()
           << a.num_vertices() << " vertices / " << a.num_edges()
           << " edges vs " << b.num_vertices() << " / " << b.num_edges();
  }
  if (a.has_hub_index() != b.has_hub_index() ||
      a.hub_degree_threshold() != b.hub_degree_threshold() ||
      a.num_hubs() != b.num_hubs()) {
    return ::testing::AssertionFailure() << "hub indexes differ";
  }
  for (size_t v = 0; v < a.num_vertices(); ++v) {
    const VertexId id = static_cast<VertexId>(v);
    const auto x = a.Neighbors(id);
    const auto y = b.Neighbors(id);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
      return ::testing::AssertionFailure() << "row " << v << " differs";
    }
    const BitsetView p = a.HubBitset(id);
    const BitsetView q = b.HubBitset(id);
    if (p.num_words != q.num_words ||
        !std::equal(p.words, p.words + p.num_words, q.words)) {
      return ::testing::AssertionFailure() << "hub row " << v << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ShardCutTest, EveryHostedShardEqualsTheOfflineCut) {
  size_t hub_rows = 0;
  for (int g = 0; g < kGraphs; ++g) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(g);
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    const StaticGraph follow_graph = RandomFollowGraph(rng, g % 2 == 1);
    for (const uint32_t cap : {0u, 2u, 10u}) {
      auto capped = ApplyInfluencerCap(follow_graph, cap);
      ASSERT_TRUE(capped.ok()) << capped.status();
      const StaticGraph follower_index = capped->Transpose();
      for (uint32_t partitions = 1; partitions <= 5; ++partitions) {
        const uint64_t salt = rng.UniformInt(1'000);
        ClusterOptions base;
        base.max_influencers_per_user = cap;
        base.partitioner_salt = salt;
        base.detector.k = 2;
        const HashPartitioner partitioner(partitions, salt);

        // One all-hosting cluster, then one group member per partition.
        std::vector<std::unique_ptr<Cluster>> clusters;
        ClusterOptions all = base;
        all.num_partitions = partitions;
        auto hosting_all = Cluster::Create(follow_graph, all);
        ASSERT_TRUE(hosting_all.ok()) << hosting_all.status();
        clusters.push_back(std::move(hosting_all).value());
        for (uint32_t p = 0; p < partitions; ++p) {
          ClusterOptions member = base;
          member.group_size = partitions;
          member.group_partition = p;
          auto cluster = Cluster::Create(follow_graph, member);
          ASSERT_TRUE(cluster.ok()) << cluster.status();
          clusters.push_back(std::move(cluster).value());
        }

        for (const auto& cluster : clusters) {
          for (const uint32_t p : cluster->owned_partitions()) {
            auto expected = BuildPartitionShard(follower_index, partitioner, p);
            ASSERT_TRUE(expected.ok()) << expected.status();
            expected->BuildHubIndex();
            hub_rows += expected->num_hubs();
            EXPECT_TRUE(
                SameShard(cluster->replica(p, 0).static_index(), *expected))
                << "cap " << cap << ", partition " << p << " of "
                << partitions
                << (cluster->is_partition_group_member() ? " (group)" : "");
          }
        }
      }
    }
  }
  EXPECT_GT(hub_rows, 0u) << "no shard had a hub row to compare";
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

}  // namespace
}  // namespace magicrecs
