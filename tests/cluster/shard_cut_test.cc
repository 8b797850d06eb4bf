// The offline cuts of S (cluster/shard_cut.h): the influencer cap and
// BuildPartitionShard, and the cut Cluster::Create makes instead.
//
// Cluster::Create cuts each hosted shard straight from the follow graph
// with StaticGraph::TransposeIf, which names each A by its rank among the
// partition's users. Mapped back through its rank -> id map, every shard
// must equal the offline cut it replaces: BuildPartitionShard over the
// transpose of the capped follow graph, hub index included. Random graphs,
// 1-5 partitions, all-hosting and partition-group mode, caps 0, 2 and 10.
// A shard's hub bitmaps and each replica's count table span only the
// partition's users.
//
// The graphs are seeded; failures print the seed, rerun with
// MAGICRECS_FUZZ_SEED=<seed>.

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <vector>

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

/// `hosted`, a shard in local ids, mapped back through its rank -> id map,
/// equals `expected`, the same partition's cut in vertex ids: same vertex
/// count, rows and hub rows. The map holds exactly `users`, the
/// partition's users in ascending order, and each hub bitmap spans only
/// them.
::testing::AssertionResult SameShard(const StaticGraph& hosted,
                                     const StaticGraph& expected,
                                     const std::vector<VertexId>& users) {
  const auto map = hosted.local_ids();
  if (!std::equal(map.begin(), map.end(), users.begin(), users.end())) {
    return ::testing::AssertionFailure()
           << "the rank -> id map is not the partition's users ("
           << map.size() << " ids vs " << users.size() << ")";
  }
  if (hosted.neighbor_universe() != users.size()) {
    return ::testing::AssertionFailure()
           << "neighbor universe " << hosted.neighbor_universe() << " vs "
           << users.size() << " users";
  }
  if (hosted.num_vertices() != expected.num_vertices() ||
      hosted.num_edges() != expected.num_edges()) {
    return ::testing::AssertionFailure()
           << hosted.num_vertices() << " vertices / " << hosted.num_edges()
           << " edges vs " << expected.num_vertices() << " / "
           << expected.num_edges();
  }
  if (hosted.has_hub_index() != expected.has_hub_index() ||
      hosted.hub_degree_threshold() != expected.hub_degree_threshold() ||
      hosted.num_hubs() != expected.num_hubs()) {
    return ::testing::AssertionFailure() << "hub indexes differ";
  }
  std::vector<VertexId> mapped;
  for (size_t v = 0; v < hosted.num_vertices(); ++v) {
    const VertexId id = static_cast<VertexId>(v);
    const auto row = hosted.Neighbors(id);
    mapped.clear();
    for (const VertexId a : row) mapped.push_back(hosted.GlobalId(a));
    const auto want = expected.Neighbors(id);
    if (!std::equal(mapped.begin(), mapped.end(), want.begin(), want.end())) {
      return ::testing::AssertionFailure() << "row " << v << " differs";
    }
    if (hosted.IsHub(id) != expected.IsHub(id)) {
      return ::testing::AssertionFailure() << "hub row " << v << " differs";
    }
    if (!hosted.IsHub(id)) continue;
    // The bitmap spans the local universe and holds exactly the row.
    const BitsetView bits = hosted.HubBitset(id);
    size_t set = 0;
    for (size_t w = 0; w < bits.num_words; ++w) {
      set += static_cast<size_t>(std::popcount(bits.words[w]));
    }
    if (bits.num_words != (users.size() + 63) / 64 || set != row.size() ||
        !std::all_of(row.begin(), row.end(),
                     [&](VertexId a) { return bits.Test(a); })) {
      return ::testing::AssertionFailure() << "hub row " << v << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Partition p's users among `num_vertices`, in ascending order.
std::vector<VertexId> UsersOf(const HashPartitioner& partitioner, uint32_t p,
                              size_t num_vertices) {
  std::vector<VertexId> users;
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (partitioner.PartitionOf(v) == p) users.push_back(v);
  }
  return users;
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
            EXPECT_TRUE(SameShard(
                cluster->replica(p, 0).static_index(), *expected,
                UsersOf(partitioner, p, follow_graph.num_vertices())))
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

TEST(ShardCutTest, ShardTablesSpanOnlyThePartitionsUsers) {
  // A 4-way group member's shard names its A's by local ids: its hub
  // bitmaps and each replica's count table span the partition's users, not
  // every vertex, and no id at or past that universe is an edge.
  Rng rng(BaseSeed() ^ 0x10ca1);
  StaticGraph follow_graph = RandomFollowGraph(rng, /*with_celebrity=*/true);
  while (follow_graph.num_vertices() < 1'400) {
    follow_graph = RandomFollowGraph(rng, /*with_celebrity=*/true);
  }
  ClusterOptions options;
  options.group_size = 4;
  options.group_partition = 1;
  options.replicas_per_partition = 2;
  options.detector.k = 2;
  auto cluster = Cluster::Create(follow_graph, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const std::vector<VertexId> users = UsersOf(
      (*cluster)->partitioner(), 1, follow_graph.num_vertices());
  const size_t universe = users.size();
  ASSERT_LT(universe, follow_graph.num_vertices() / 2);

  const StaticGraph& shard = (*cluster)->replica(1, 0).static_index();
  EXPECT_EQ(shard.num_vertices(), follow_graph.num_vertices());
  EXPECT_EQ(shard.neighbor_universe(), universe);
  ASSERT_TRUE(shard.IsHub(0)) << "the celebrity's followers make a hub row";
  EXPECT_EQ(shard.HubBitset(0).num_words, (universe + 63) / 64);
  for (uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ((*cluster)->replica(1, r).count_universe(), universe)
        << "replica " << r;
    EXPECT_EQ(&(*cluster)->replica(1, r).static_index(), &shard)
        << "replica " << r;
  }

  // Every local id below the universe stands for a user of the partition;
  // none at or past it is an edge, on a hub row or an array row.
  VertexId array_row = 1;
  while (shard.IsHub(array_row) || shard.OutDegree(array_row) == 0) {
    ++array_row;
    ASSERT_LT(array_row, shard.num_vertices());
  }
  for (const VertexId row : {VertexId{0}, array_row}) {
    const auto list = shard.Neighbors(row);
    ASSERT_FALSE(list.empty());
    EXPECT_LT(list.back(), universe);
    EXPECT_TRUE(shard.HasEdge(row, list.back()));
    for (const size_t past :
         {universe, universe + 1, 64 * ((universe + 63) / 64),
          follow_graph.num_vertices() - 1}) {
      EXPECT_FALSE(shard.HasEdge(row, static_cast<VertexId>(past)))
          << "row " << row << ", id " << past;
    }
  }
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
