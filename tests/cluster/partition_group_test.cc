// Partition-group mode (ClusterOptions::group_size): a Cluster hosting one
// global partition of a wider deployment. The invariants that make the
// process-per-partition topology correct:
//   * the union of the group members' recommendations equals the
//     all-in-one-process cluster's, with no overlap (each A is owned by
//     exactly one partition);
//   * replica ops speak global partition ids and reject partitions hosted
//     elsewhere;
//   * stats stay attributable (per-replica entries carry the global id).

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/shard_cut.h"
#include "gen/activity_stream.h"
#include "gen/figure1.h"
#include "gen/social_graph.h"

namespace magicrecs {
namespace {

ClusterOptions FullOptions(uint32_t partitions, uint32_t replicas = 1,
                           uint32_t k = 2) {
  ClusterOptions opt;
  opt.num_partitions = partitions;
  opt.replicas_per_partition = replicas;
  opt.detector.k = k;
  opt.detector.window = Minutes(10);
  return opt;
}

ClusterOptions GroupOptions(uint32_t group_size, uint32_t partition,
                            uint32_t replicas = 1, uint32_t k = 2) {
  ClusterOptions opt = FullOptions(/*partitions=*/1, replicas, k);
  opt.group_size = group_size;
  opt.group_partition = partition;
  return opt;
}

std::vector<Recommendation> Sorted(std::vector<Recommendation> recs) {
  std::sort(recs.begin(), recs.end(),
            [](const Recommendation& a, const Recommendation& b) {
              return std::tie(a.user, a.item, a.witness_count, a.trigger,
                              a.event_time, a.witnesses) <
                     std::tie(b.user, b.item, b.witness_count, b.trigger,
                              b.event_time, b.witnesses);
            });
  return recs;
}

TEST(PartitionGroupTest, InvalidGroupOptionsRejected) {
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), GroupOptions(4, 4))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), GroupOptions(1, 7))
                  .status()
                  .IsInvalidArgument());
}

TEST(PartitionGroupTest, GroupMemberHostsExactlyItsPartition) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), GroupOptions(4, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  EXPECT_EQ((*cluster)->num_partitions(), 4u);
  EXPECT_TRUE((*cluster)->is_partition_group_member());
  ASSERT_EQ((*cluster)->owned_partitions().size(), 1u);
  EXPECT_EQ((*cluster)->owned_partitions()[0], 2u);
  EXPECT_TRUE((*cluster)->hosts_partition(2));
  EXPECT_FALSE((*cluster)->hosts_partition(0));
  // Its one shard, mapped from local ids back through its rank -> id map,
  // is exactly partition 2's cut of the follower index.
  auto cut = BuildPartitionShard(figure1::FollowGraph().Transpose(),
                                 (*cluster)->partitioner(), 2);
  ASSERT_TRUE(cut.ok()) << cut.status();
  std::vector<Edge> hosted;
  std::vector<Edge> expected;
  const StaticGraph& shard = (*cluster)->replica(2, 0).static_index();
  shard.ForEachEdge([&](VertexId b, VertexId a) {
    ASSERT_LT(a, shard.neighbor_universe());
    hosted.push_back({b, shard.GlobalId(a)});
  });
  cut->ForEachEdge([&](VertexId b, VertexId a) { expected.push_back({b, a}); });
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(hosted, expected);
}

TEST(PartitionGroupTest, GroupUnionMatchesFullClusterExactly) {
  SocialGraphOptions gopt;
  gopt.num_users = 400;
  gopt.mean_followees = 12;
  gopt.seed = 71;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 3'000;
  sopt.events_per_second = 400;
  sopt.burst_fraction = 0.3;
  sopt.seed = 72;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());

  constexpr uint32_t kGroup = 4;
  auto full = Cluster::Create(*graph, FullOptions(kGroup));
  ASSERT_TRUE(full.ok());
  for (const TimestampedEdge& e : stream->events) {
    ASSERT_TRUE((*full)->Publish({.edge = e}).ok());
  }
  const std::vector<Recommendation> reference =
      (*full)->TakeRecommendations().value();
  ASSERT_FALSE(reference.empty()) << "workload produced no motifs";

  // Feed the identical stream to each group member (the fan-out broker's
  // job); every member emits only its resident A's recommendations.
  std::vector<Recommendation> unioned;
  for (uint32_t p = 0; p < kGroup; ++p) {
    auto member = Cluster::Create(*graph, GroupOptions(kGroup, p));
    ASSERT_TRUE(member.ok()) << member.status();
    for (const TimestampedEdge& e : stream->events) {
      ASSERT_TRUE((*member)->Publish({.edge = e}).ok());
    }
    const std::vector<Recommendation> local =
        (*member)->TakeRecommendations().value();
    for (const Recommendation& rec : local) {
      EXPECT_EQ((*member)->partitioner().PartitionOf(rec.user), p)
          << "a group member emitted a recommendation for an A it does not "
             "own";
    }
    unioned.insert(unioned.end(), local.begin(), local.end());
  }
  EXPECT_EQ(Sorted(unioned), Sorted(reference));
}

TEST(PartitionGroupTest, ReplicaOpsSpeakGlobalPartitionIds) {
  auto cluster =
      Cluster::Create(figure1::FollowGraph(), GroupOptions(4, 1, /*replicas=*/2));
  ASSERT_TRUE(cluster.ok());

  EXPECT_TRUE((*cluster)->KillReplica(1, 0).ok());
  EXPECT_EQ((*cluster)->alive_replicas(1), 1u);
  EXPECT_TRUE((*cluster)->RecoverReplica(1, 0).ok());
  EXPECT_EQ((*cluster)->alive_replicas(1), 2u);

  // Partitions hosted by OTHER group members are rejected, not aliased onto
  // local state.
  EXPECT_TRUE((*cluster)->KillReplica(0, 0).IsInvalidArgument());
  EXPECT_TRUE((*cluster)->RecoverReplica(3, 1).IsInvalidArgument());
  EXPECT_TRUE((*cluster)->KillReplica(1, 2).IsInvalidArgument());
}

TEST(PartitionGroupTest, PerReplicaStatsCarryGlobalIdentity) {
  auto cluster =
      Cluster::Create(figure1::FollowGraph(), GroupOptions(8, 5, /*replicas=*/2));
  ASSERT_TRUE(cluster.ok());
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*cluster)->Publish({.edge = e}).ok());
  }
  ASSERT_TRUE((*cluster)->KillReplica(5, 1).ok());

  const std::vector<ReplicaStats> stats = (*cluster)->PerReplicaStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].partition, 5u);
  EXPECT_EQ(stats[0].replica, 0u);
  EXPECT_TRUE(stats[0].alive);
  EXPECT_EQ(stats[0].detector_events, figure1::DynamicEdges(0).size());
  EXPECT_EQ(stats[1].partition, 5u);
  EXPECT_EQ(stats[1].replica, 1u);
  EXPECT_FALSE(stats[1].alive);
  EXPECT_FALSE(stats[1].ToString().empty());
}

TEST(PartitionGroupTest, FullClusterPerReplicaStatsCoverEveryShard) {
  auto cluster = Cluster::Create(figure1::FollowGraph(),
                                 FullOptions(3, /*replicas=*/2));
  ASSERT_TRUE(cluster.ok());
  const std::vector<ReplicaStats> stats = (*cluster)->PerReplicaStats();
  ASSERT_EQ(stats.size(), 6u);
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (const ReplicaStats& entry : stats) {
    seen.insert({entry.partition, entry.replica});
    EXPECT_TRUE(entry.alive);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(PartitionGroupTest, ThreadedGroupMemberMatchesInlineGroupMember) {
  SocialGraphOptions gopt;
  gopt.num_users = 300;
  gopt.mean_followees = 10;
  gopt.seed = 81;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 2'000;
  sopt.events_per_second = 300;
  sopt.seed = 82;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());

  auto inline_member = Cluster::Create(*graph, GroupOptions(3, 1));
  ASSERT_TRUE(inline_member.ok());
  for (const TimestampedEdge& e : stream->events) {
    ASSERT_TRUE((*inline_member)->Publish({.edge = e}).ok());
  }
  const std::vector<Recommendation> reference =
      (*inline_member)->TakeRecommendations().value();

  auto threaded = Cluster::Create(*graph, GroupOptions(3, 1, /*replicas=*/2));
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE((*threaded)->Start().ok());
  for (const TimestampedEdge& e : stream->events) {
    EdgeEvent event;
    event.edge = e;
    ASSERT_TRUE((*threaded)->Publish(event).ok());
  }
  (*threaded)->Drain();
  const std::vector<Recommendation> got =
      (*threaded)->TakeRecommendations().value();
  (*threaded)->Stop();
  EXPECT_EQ(Sorted(got), Sorted(reference));
}

}  // namespace
}  // namespace magicrecs
