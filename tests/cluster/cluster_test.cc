#include "cluster/cluster.h"

#include <algorithm>
#include <array>
#include <set>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "gen/activity_stream.h"
#include "gen/figure1.h"
#include "gen/social_graph.h"
#include "util/metrics.h"

namespace magicrecs {
namespace {

ClusterOptions MakeOptions(uint32_t partitions, uint32_t replicas = 1,
                           uint32_t k = 2) {
  ClusterOptions opt;
  opt.num_partitions = partitions;
  opt.replicas_per_partition = replicas;
  opt.detector.k = k;
  opt.detector.window = Minutes(10);
  return opt;
}

std::multiset<std::pair<VertexId, VertexId>> Pairs(
    const std::vector<Recommendation>& recs) {
  std::multiset<std::pair<VertexId, VertexId>> out;
  for (const auto& r : recs) out.insert({r.user, r.item});
  return out;
}

TEST(ClusterTest, InvalidOptionsRejected) {
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), MakeOptions(0))
                  .status()
                  .IsInvalidArgument());
  ClusterOptions too_many_replicas = MakeOptions(2, 65);
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), too_many_replicas)
                  .status()
                  .IsInvalidArgument());
}

TEST(ClusterTest, InlineFigure1MatchesSingleMachine) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(4));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*cluster)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
  EXPECT_EQ(recs[0].item, figure1::kC2);
}

TEST(ClusterTest, PartitionCountDoesNotChangeResults) {
  // The paper's key property: partitioning by A keeps intersections local,
  // so any partition count yields the same recommendations.
  SocialGraphOptions gopt;
  gopt.num_users = 500;
  gopt.mean_followees = 12;
  gopt.seed = 11;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 3'000;
  sopt.events_per_second = 500;
  sopt.seed = 13;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());

  std::multiset<std::pair<VertexId, VertexId>> reference;
  for (const uint32_t partitions : {1u, 2u, 7u, 20u}) {
    auto cluster = Cluster::Create(*graph, MakeOptions(partitions));
    ASSERT_TRUE(cluster.ok());
    std::vector<Recommendation> recs;
    for (const TimestampedEdge& e : stream->events) {
      ASSERT_TRUE((*cluster)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
    }
    if (partitions == 1) {
      reference = Pairs(recs);
      EXPECT_FALSE(reference.empty()) << "workload produced no motifs";
    } else {
      EXPECT_EQ(Pairs(recs), reference) << partitions << " partitions";
    }
  }
}

TEST(ClusterTest, ReplicasDoNotDuplicateRecommendations) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2, 3));
  ASSERT_TRUE(cluster.ok());
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*cluster)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  EXPECT_EQ(recs.size(), 1u);
}

TEST(ClusterTest, ThreadedModeMatchesInlineMode) {
  SocialGraphOptions gopt;
  gopt.num_users = 300;
  gopt.mean_followees = 10;
  gopt.seed = 17;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 2'000;
  sopt.seed = 19;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());

  auto inline_cluster = Cluster::Create(*graph, MakeOptions(3));
  ASSERT_TRUE(inline_cluster.ok());
  std::vector<Recommendation> inline_recs;
  for (const TimestampedEdge& e : stream->events) {
    ASSERT_TRUE(
        (*inline_cluster)->OnEdge(e.src, e.dst, e.created_at, &inline_recs).ok());
  }

  auto threaded = Cluster::Create(*graph, MakeOptions(3));
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE((*threaded)->Start().ok());
  for (const TimestampedEdge& e : stream->events) {
    EdgeEvent event;
    event.edge = e;
    ASSERT_TRUE((*threaded)->Publish(event).ok());
  }
  (*threaded)->Drain();
  (*threaded)->Stop();
  const std::vector<Recommendation> threaded_recs =
      (*threaded)->TakeRecommendations();

  EXPECT_EQ(Pairs(threaded_recs), Pairs(inline_recs));
}

TEST(ClusterTest, FailedApplyIsReturnedInlineAndCountedThreaded) {
  // strict_time_order rejects an in-edge older than the newest one of its
  // destination: the second event below fails to apply.
  ClusterOptions opt = MakeOptions(1);
  opt.detector.strict_time_order = true;
  EdgeEvent newer, older;
  newer.edge = {figure1::kB1, figure1::kC1, Seconds(100)};
  older.edge = {figure1::kB2, figure1::kC1, Seconds(50)};
  // The registry is process-wide, so compare against a reading taken first.
  const Counter* errors = MetricsRegistry::Default()->GetCounter(
      "publish_apply_errors", {{"partition", "0"}});

  auto inline_cluster = Cluster::Create(figure1::FollowGraph(), opt);
  ASSERT_TRUE(inline_cluster.ok()) << inline_cluster.status();
  std::vector<Recommendation> recs;
  ASSERT_TRUE((*inline_cluster)->OnEdgeEvent(newer, &recs).ok());
  uint64_t before = errors->Value();
  EXPECT_TRUE(
      (*inline_cluster)->OnEdgeEvent(older, &recs).IsFailedPrecondition());
  EXPECT_EQ(errors->Value(), before + 1);

  auto threaded = Cluster::Create(figure1::FollowGraph(), opt);
  ASSERT_TRUE(threaded.ok()) << threaded.status();
  ASSERT_TRUE((*threaded)->Start().ok());
  before = errors->Value();
  ASSERT_TRUE((*threaded)->Publish(newer).ok());
  ASSERT_TRUE((*threaded)->Publish(older).ok());  // accepted; fails on apply
  (*threaded)->Drain();
  (*threaded)->Stop();
  EXPECT_EQ(errors->Value(), before + 1);
}

std::vector<EdgeEvent> ToEvents(const std::vector<TimestampedEdge>& edges) {
  std::vector<EdgeEvent> events(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) events[i].edge = edges[i];
  return events;
}

// The recommendations of an inline cluster fed `events` one at a time: the
// oracle for every threaded publish schedule.
std::multiset<std::pair<VertexId, VertexId>> InlinePairs(
    const StaticGraph& graph, const ClusterOptions& opt,
    const std::vector<EdgeEvent>& events) {
  auto cluster = Cluster::Create(graph, opt);
  EXPECT_TRUE(cluster.ok()) << cluster.status();
  std::vector<Recommendation> recs;
  for (const EdgeEvent& event : events) {
    EXPECT_TRUE((*cluster)->OnEdgeEvent(event, &recs).ok());
  }
  return Pairs(recs);
}

struct Workload {
  StaticGraph graph;
  std::vector<EdgeEvent> events;
};

Workload MakeWorkload(size_t num_events) {
  SocialGraphOptions gopt;
  gopt.num_users = 300;
  gopt.mean_followees = 10;
  gopt.seed = 29;
  auto graph = SocialGraphGenerator(gopt).Generate();
  EXPECT_TRUE(graph.ok());
  ActivityStreamOptions sopt;
  sopt.num_events = num_events;
  sopt.seed = 31;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  EXPECT_TRUE(stream.ok());
  return {std::move(*graph), ToEvents(stream->events)};
}

TEST(ClusterTest, MixedBatchesMatchInline) {
  // Batches of every size the daemon sees, interleaved with single-event
  // publishes; strict_time_order turns any reordering inside a replica into
  // an apply failure, so equal output means per-replica order held.
  ClusterOptions opt = MakeOptions(3, 2);
  opt.detector.strict_time_order = true;
  const Workload w = MakeWorkload(10'000);
  const auto reference = InlinePairs(w.graph, opt, w.events);
  ASSERT_FALSE(reference.empty()) << "workload produced no motifs";

  auto threaded = Cluster::Create(w.graph, opt);
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE((*threaded)->Start().ok());
  const std::span<const EdgeEvent> all(w.events);
  size_t next = 0;
  for (size_t round = 0; next < all.size(); ++round) {
    const size_t size =
        std::min<size_t>(std::array<size_t, 4>{1, 7, 256, 4096}[round % 4],
                         all.size() - next);
    ASSERT_TRUE((*threaded)->PublishBatch(all.subspan(next, size)).ok());
    next += size;
    if (next < all.size()) {
      ASSERT_TRUE((*threaded)->Publish(all[next++]).ok());
    }
  }
  (*threaded)->Drain();
  (*threaded)->Stop();
  EXPECT_EQ((*threaded)->events_published(), w.events.size());
  EXPECT_EQ(Pairs((*threaded)->TakeRecommendations()), reference);
}

TEST(ClusterTest, OversizedBatchIsAdmittedAlone) {
  // A 256-event batch never fits a 1-event inbox; it must enter an empty
  // one instead of blocking forever.
  ClusterOptions opt = MakeOptions(2, 2);
  opt.inbox_capacity = 1;
  const Workload w = MakeWorkload(2'048);
  const auto reference = InlinePairs(w.graph, opt, w.events);

  auto threaded = Cluster::Create(w.graph, opt);
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE((*threaded)->Start().ok());
  const std::span<const EdgeEvent> all(w.events);
  for (size_t i = 0; i < all.size(); i += 256) {
    ASSERT_TRUE((*threaded)
                    ->PublishBatch(all.subspan(i, std::min<size_t>(
                                                      256, all.size() - i)))
                    .ok());
  }
  (*threaded)->Drain();
  (*threaded)->Stop();
  EXPECT_EQ(Pairs((*threaded)->TakeRecommendations()), reference);
}

TEST(ClusterTest, FailedEventMidBatchDoesNotStopTheBatch) {
  // `older` is older than C2's newest in-edge under strict_time_order, so it
  // fails; `later` then completes the Figure 1 diamond (A2 follows B1 and
  // B2, both now point to C2) and must still be applied.
  ClusterOptions opt = MakeOptions(1);
  opt.detector.strict_time_order = true;
  EdgeEvent newer, older, later;
  newer.edge = {figure1::kB1, figure1::kC2, Seconds(100)};
  older.edge = {figure1::kB2, figure1::kC2, Seconds(50)};
  later.edge = {figure1::kB2, figure1::kC2, Seconds(101)};
  const Counter* errors = MetricsRegistry::Default()->GetCounter(
      "publish_apply_errors", {{"partition", "0"}});

  auto threaded = Cluster::Create(figure1::FollowGraph(), opt);
  ASSERT_TRUE(threaded.ok()) << threaded.status();
  ASSERT_TRUE((*threaded)->Start().ok());
  const uint64_t before = errors->Value();
  const std::vector<EdgeEvent> batch = {newer, older, later};
  ASSERT_TRUE((*threaded)->PublishBatch(batch).ok());
  (*threaded)->Drain();
  (*threaded)->Stop();
  EXPECT_EQ(errors->Value(), before + 1);
  const std::vector<Recommendation> recs = (*threaded)->TakeRecommendations();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
  EXPECT_EQ(recs[0].item, figure1::kC2);
}

TEST(ClusterTest, InboxHandsOffOneItemPerBatchPerReplica) {
  // The structural pin of the batch handoff: every replica inbox takes one
  // item per publish batch, so publish_inbox_wait_us grows by the batch
  // count per replica. A per-event handoff would grow it by the event count.
  constexpr uint32_t kPartitions = 2;
  constexpr uint32_t kReplicas = 2;
  constexpr size_t kBatches = 12;
  constexpr size_t kBatchSize = 64;
  const Workload w = MakeWorkload(kBatches * kBatchSize);
  std::vector<const HistogramMetric*> waits;
  std::vector<uint64_t> before;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    waits.push_back(MetricsRegistry::Default()->GetHistogram(
        "publish_inbox_wait_us", {{"partition", std::to_string(p)}}));
    before.push_back(waits.back()->Snapshot().Count());
  }

  auto threaded = Cluster::Create(w.graph, MakeOptions(kPartitions, kReplicas));
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE((*threaded)->Start().ok());
  const std::span<const EdgeEvent> all(w.events);
  for (size_t b = 0; b < kBatches; ++b) {
    const auto batch = all.subspan(b * kBatchSize, kBatchSize);
    ASSERT_TRUE((*threaded)->PublishBatch(batch).ok());
  }
  (*threaded)->Drain();
  (*threaded)->Stop();
  for (uint32_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(waits[p]->Snapshot().Count() - before[p], kBatches * kReplicas)
        << "partition " << p;
  }
}

TEST(ClusterTest, PublishRequiresStart) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2));
  ASSERT_TRUE(cluster.ok());
  EdgeEvent event;
  event.edge = {figure1::kB1, figure1::kC1, 1};
  EXPECT_TRUE((*cluster)->Publish(event).IsFailedPrecondition());
}

TEST(ClusterTest, InlineRejectedWhileRunning) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Start().ok());
  std::vector<Recommendation> recs;
  EXPECT_TRUE(
      (*cluster)->OnEdge(0, 1, 0, &recs).IsFailedPrecondition());
  (*cluster)->Stop();
}

TEST(ClusterTest, DoubleStartRejected) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Start().ok());
  EXPECT_TRUE((*cluster)->Start().IsFailedPrecondition());
  (*cluster)->Stop();
}

TEST(ClusterTest, KillReplicaWithoutReplicationLosesDetections) {
  // One replica per partition: killing the partition owning A2 silently
  // loses its recommendations — the fault-tolerance motivation.
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2, 1));
  ASSERT_TRUE(cluster.ok());
  const uint32_t a2_partition =
      (*cluster)->partitioner().PartitionOf(figure1::kA2);
  ASSERT_TRUE((*cluster)->KillReplica(a2_partition, 0).ok());

  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*cluster)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  EXPECT_TRUE(recs.empty());
}

TEST(ClusterTest, ReplicaFailoverPreservesDetections) {
  // Two replicas: kill one before the stream; the survivor answers.
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2, 2));
  ASSERT_TRUE(cluster.ok());
  const uint32_t a2_partition =
      (*cluster)->partitioner().PartitionOf(figure1::kA2);
  ASSERT_TRUE((*cluster)->KillReplica(a2_partition, 0).ok());
  EXPECT_EQ((*cluster)->alive_replicas(a2_partition), 1u);

  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*cluster)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
}

TEST(ClusterTest, RecoveredReplicaSyncsStateFromPeer) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(1, 2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->KillReplica(0, 1).ok());

  // Replica 1 misses the first three edges.
  const auto edges = figure1::DynamicEdges(0);
  std::vector<Recommendation> recs;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    ASSERT_TRUE(
        (*cluster)->OnEdge(edges[i].src, edges[i].dst, edges[i].created_at, &recs).ok());
  }
  // Recover it (syncs D from replica 0), then deliver the trigger. Whichever
  // replica answers, the state is complete.
  ASSERT_TRUE((*cluster)->RecoverReplica(0, 1).ok());
  EXPECT_EQ((*cluster)->alive_replicas(0), 2u);
  ASSERT_TRUE((*cluster)
                  ->OnEdge(edges.back().src, edges.back().dst,
                           edges.back().created_at, &recs)
                  .ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
}

TEST(ClusterTest, RecoverAliveReplicaIsAlreadyExists) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(1, 2));
  ASSERT_TRUE(cluster.ok());
  EXPECT_TRUE((*cluster)->RecoverReplica(0, 0).IsAlreadyExists());
}

TEST(ClusterTest, KillInvalidReplicaRejected) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2, 1));
  ASSERT_TRUE(cluster.ok());
  EXPECT_TRUE((*cluster)->KillReplica(5, 0).IsInvalidArgument());
  EXPECT_TRUE((*cluster)->KillReplica(0, 3).IsInvalidArgument());
}

TEST(ClusterTest, DynamicMemoryGrowsWithPartitionCount) {
  // The scalability bottleneck the paper flags: every partition holds the
  // full D, so total dynamic memory scales with the partition count.
  SocialGraphOptions gopt;
  gopt.num_users = 200;
  gopt.seed = 23;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  size_t memory_small = 0, memory_large = 0;
  for (const auto& [partitions, out] :
       std::vector<std::pair<uint32_t, size_t*>>{{2, &memory_small},
                                                 {8, &memory_large}}) {
    auto cluster = Cluster::Create(*graph, MakeOptions(partitions));
    ASSERT_TRUE(cluster.ok());
    std::vector<Recommendation> recs;
    for (int i = 0; i < 500; ++i) {
      const VertexId src = static_cast<VertexId>(i % 200);
      const VertexId dst = static_cast<VertexId>((i * 7 + 1) % 200);
      if (src == dst) continue;
      ASSERT_TRUE((*cluster)->OnEdge(src, dst, Seconds(i), &recs).ok());
    }
    *out = (*cluster)->TotalDynamicMemory();
  }
  EXPECT_GT(memory_large, memory_small * 3);
}

TEST(ClusterTest, ShardsPartitionStaticMemory) {
  // Without replication, the shards together hold exactly the full S.
  auto one = Cluster::Create(figure1::FollowGraph(), MakeOptions(1));
  auto four = Cluster::Create(figure1::FollowGraph(), MakeOptions(4));
  ASSERT_TRUE(one.ok() && four.ok());
  size_t one_edges = 0, four_edges = 0;
  for (uint32_t p = 0; p < 1; ++p) {
    one_edges += (*one)->server(p, 0).shard().num_edges();
  }
  for (uint32_t p = 0; p < 4; ++p) {
    four_edges += (*four)->server(p, 0).shard().num_edges();
  }
  EXPECT_EQ(one_edges, four_edges);
}

TEST(ClusterTest, AggregatedStatsCoverAllPartitions) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(3));
  ASSERT_TRUE(cluster.ok());
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*cluster)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  const MotifEngineStats stats = (*cluster)->AggregatedStats();
  // Every partition ingests every event.
  EXPECT_EQ(stats.events, 4u * 3u);
  EXPECT_EQ(stats.recommendations, 1u);
}

}  // namespace
}  // namespace magicrecs
