// ClusterTransport seam tests: a never-started and a started Cluster must
// be interchangeable behind the publish/drain/gather contract.

#include "cluster/transport.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "gen/activity_stream.h"
#include "gen/figure1.h"
#include "gen/social_graph.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

/// Never started, every publish applies before it returns (inline);
/// `threaded`, a window thread and one worker per replica run it.
Result<std::unique_ptr<Cluster>> MakeCluster(const StaticGraph& graph,
                                             const ClusterOptions& options,
                                             bool threaded) {
  MAGICRECS_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                             Cluster::Create(graph, options));
  if (threaded) MAGICRECS_RETURN_IF_ERROR(cluster->Start());
  return cluster;
}

ClusterOptions MakeOptions(uint32_t partitions, uint32_t k = 2) {
  ClusterOptions opt;
  opt.num_partitions = partitions;
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

/// Runs the full figure-1 stream through a transport and gathers.
std::vector<Recommendation> RunFigure1(ClusterTransport* transport) {
  for (const TimestampedEdge& edge : figure1::DynamicEdges(0)) {
    EdgeEvent event;
    event.edge = edge;
    EXPECT_TRUE(transport->Publish(event).ok());
  }
  EXPECT_TRUE(transport->Drain().ok());
  auto recs = transport->TakeRecommendations();
  EXPECT_TRUE(recs.ok());
  return std::move(recs).value();
}

TEST(ClusterTransportTest, InlineAndThreadedAgreeOnFigure1) {
  for (const bool threaded : {false, true}) {
    auto transport =
        MakeCluster(figure1::FollowGraph(), MakeOptions(2), threaded);
    ASSERT_TRUE(transport.ok()) << transport.status();
    const auto recs = RunFigure1(transport->get());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].user, figure1::kA2);
    EXPECT_EQ(recs[0].item, figure1::kC2);
  }
}

TEST(ClusterTransportTest, ModesAgreeOnGeneratedStream) {
  SocialGraphOptions gopt;
  gopt.num_users = 300;
  gopt.mean_followees = 10;
  gopt.seed = 31;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());
  ActivityStreamOptions sopt;
  sopt.num_events = 2'000;
  sopt.seed = 32;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());

  std::multiset<std::pair<VertexId, VertexId>> reference;
  for (const bool threaded : {false, true}) {
    auto transport = MakeCluster(*graph, MakeOptions(3), threaded);
    ASSERT_TRUE(transport.ok());
    // Exercise both the per-event and the default batched path.
    std::vector<EdgeEvent> batch;
    for (const TimestampedEdge& edge : stream->events) {
      EdgeEvent event;
      event.edge = edge;
      batch.push_back(event);
    }
    const size_t half = batch.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE((*transport)->Publish(batch[i]).ok());
    }
    ASSERT_TRUE((*transport)
                    ->PublishBatch(std::span(batch.data() + half,
                                             batch.size() - half))
                    .ok());
    ASSERT_TRUE((*transport)->Drain().ok());
    auto recs = (*transport)->TakeRecommendations();
    ASSERT_TRUE(recs.ok());
    if (!threaded) {
      reference = Pairs(*recs);
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(Pairs(*recs), reference);
    }
  }
}

TEST(ClusterTransportTest, RecoverWithAQueuedBacklogAnswersEveryEventOnce) {
  // Workers pick the replica that answers an event from the alive mask when
  // they reach it, and a dead replica's worker skips ahead of its live peer.
  // The recover below lands while batches are still queued, so it must
  // quiesce first: otherwise the survivor's backlog is split again by the
  // new mask, and the events that fall to the replica that already skipped
  // them (or that the survivor already answered) are lost (or answered
  // twice). Inline mode is the oracle.
  SocialGraphOptions gopt;
  gopt.num_users = 300;
  gopt.mean_followees = 10;
  gopt.seed = 41;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());
  ActivityStreamOptions sopt;
  sopt.num_events = 3'000;
  sopt.seed = 42;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());
  std::vector<EdgeEvent> events;
  for (const TimestampedEdge& edge : stream->events) {
    EdgeEvent event;
    event.edge = edge;
    events.push_back(event);
  }
  // At k = 1 every event queries, so the query half outweighs the window
  // half and the survivor falls behind its dead peer.
  ClusterOptions options = MakeOptions(2, /*k=*/1);
  options.replicas_per_partition = 2;

  std::multiset<std::pair<VertexId, VertexId>> reference;
  for (const bool threaded : {false, true}) {
    auto transport = MakeCluster(*graph, options, threaded);
    ASSERT_TRUE(transport.ok());
    // One replica of each partition dies: the second of partition 0, the
    // first of partition 1.
    ASSERT_TRUE((*transport)->KillReplica(0, 1).ok());
    ASSERT_TRUE((*transport)->KillReplica(1, 0).ok());
    constexpr size_t kBatch = 16;
    const size_t half = events.size() / 2 / kBatch * kBatch;
    for (size_t next = 0; next < events.size(); next += kBatch) {
      if (next == half) {
        // Gives the window thread and the dead replicas' workers time to
        // run ahead of the survivors. Exactness does not depend on it.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ASSERT_TRUE((*transport)->RecoverReplica(0, 1).ok());
        ASSERT_TRUE((*transport)->RecoverReplica(1, 0).ok());
      }
      ASSERT_TRUE((*transport)
                      ->PublishBatch(std::span(events.data() + next,
                                               std::min(kBatch,
                                                        events.size() - next)))
                      .ok());
    }
    ASSERT_TRUE((*transport)->Drain().ok());
    auto recs = (*transport)->TakeRecommendations();
    ASSERT_TRUE(recs.ok());
    if (!threaded) {
      reference = Pairs(*recs);
      ASSERT_FALSE(reference.empty()) << "workload produced no motifs";
    } else {
      EXPECT_EQ(Pairs(*recs), reference);
    }
  }
}

TEST(ClusterTransportTest, StatsReflectThePublishedStream) {
  auto transport =
      MakeCluster(figure1::FollowGraph(), MakeOptions(3), /*threaded=*/false);
  ASSERT_TRUE(transport.ok());
  const auto recs = RunFigure1(transport->get());
  ASSERT_EQ(recs.size(), 1u);
  const Cluster& cluster = **transport;
  EXPECT_EQ(cluster.placement(),
            (Placement{.group_size = 3,
                       .partition = Placement::kAllPartitions,
                       .salt = 0}));
  EXPECT_EQ(cluster.num_partitions(), 3u);
  EXPECT_EQ(cluster.replicas_per_partition(), 1u);
  EXPECT_EQ(cluster.events_published(), 4u);
  const MotifEngineStats detector = cluster.AggregatedStats();
  EXPECT_EQ(detector.events, 4u);  // the process's one D, once each
  EXPECT_EQ(detector.recommendations, 1u);
  EXPECT_GT(cluster.TotalDynamicMemory(), 0u);

  // The aggregate counters stay attributable: one identity-tagged entry per
  // replica, each reading the process's D, the query counts summing back to
  // the aggregate.
  const std::vector<ReplicaStats> replicas = cluster.PerReplicaStats();
  ASSERT_EQ(replicas.size(), 3u);
  uint64_t queries = 0;
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(replicas[p].partition, p);
    EXPECT_EQ(replicas[p].replica, 0u);
    EXPECT_TRUE(replicas[p].alive);
    EXPECT_EQ(replicas[p].detector_events, detector.events);
    queries += replicas[p].threshold_queries;
  }
  EXPECT_EQ(queries, detector.threshold_queries);
  EXPECT_FALSE(replicas[0].ToString().empty());
}

TEST(ClusterTransportTest, StatsTextCarriesEveryHostedReplica) {
  // The scrape is the one stats surface, so each hosted replica's counts
  // ride it labelled with their global identity, next to the size of S.
  // Hosting partition 7 of a 9-partition group keeps these series apart
  // from the other tests' clusters, which share this process's registry.
  ClusterOptions options = MakeOptions(1);
  options.group_size = 9;
  options.group_partition = 7;
  options.replicas_per_partition = 2;
  auto transport =
      MakeCluster(figure1::FollowGraph(), options, /*threaded=*/true);
  ASSERT_TRUE(transport.ok());
  RunFigure1(transport->get());
  ASSERT_TRUE((*transport)->KillReplica(7, 1).ok());
  auto text = (*transport)->GetStatsText();
  ASSERT_TRUE(text.ok()) << text.status();
  const std::vector<ReplicaStats> replicas = (*transport)->PerReplicaStats();
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_TRUE(replicas[0].alive);
  EXPECT_FALSE(replicas[1].alive);
  for (const ReplicaStats& replica : replicas) {
    const std::string labels =
        StrFormat("{partition=\"7\",replica=\"%u\"} ", replica.replica);
    for (const std::string& line :
         {"gauge replica_alive" + labels + (replica.alive ? "1" : "0"),
          "counter replica_threshold_queries" + labels +
              std::to_string(replica.threshold_queries),
          "counter replica_recommendations" + labels +
              std::to_string(replica.recommendations)}) {
      EXPECT_NE(text->find(line + "\n"), std::string::npos)
          << line << "\n" << *text;
    }
  }
  EXPECT_NE(text->find(StrFormat("gauge static_bytes %zu\n",
                                 (*transport)->TotalStaticMemory())),
            std::string::npos)
      << *text;
}

TEST(ClusterTransportTest, StatsTextMirrorsTheProcessD) {
  ClusterOptions options = MakeOptions(2);
  options.replicas_per_partition = 2;
  auto transport =
      MakeCluster(figure1::FollowGraph(), options, /*threaded=*/true);
  ASSERT_TRUE(transport.ok());
  ASSERT_EQ(RunFigure1(transport->get()).size(), 1u);
  auto text = (*transport)->GetStatsText();
  ASSERT_TRUE(text.ok()) << text.status();
  // Both partitions and all four replicas read one D, holding the four
  // figure-1 edges once.
  EXPECT_NE(text->find("gauge dynamic_edges 4\n"), std::string::npos) << *text;
  EXPECT_NE(text->find("gauge dynamic_bytes "), std::string::npos) << *text;
  EXPECT_EQ(text->find("dynamic_edges{"), std::string::npos) << *text;
  // An edge two windows later expires the rest of D at the next scrape.
  EdgeEvent late;
  late.edge = {figure1::kB1, figure1::kC3, Minutes(20)};
  ASSERT_TRUE((*transport)->Publish(late).ok());
  text = (*transport)->GetStatsText();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("gauge dynamic_edges 1\n"), std::string::npos) << *text;
}

TEST(ClusterTransportTest, StatsTextMirrorsSampledStageTimes) {
  // Of the four figure-1 events only sequence 0 is a timing sample. The
  // process's window half times its insert and its index window, where it
  // stops below k, so no replica runs or times a query half for it.
  ClusterOptions options = MakeOptions(2);
  options.replicas_per_partition = 2;
  auto transport =
      MakeCluster(figure1::FollowGraph(), options, /*threaded=*/true);
  ASSERT_TRUE(transport.ok());
  ASSERT_EQ(RunFigure1(transport->get()).size(), 1u);
  auto text = (*transport)->GetStatsText();
  ASSERT_TRUE(text.ok()) << text.status();
  for (const char* line : {"hist detector_op_ns{op=\"index-insert\"} count=1 ",
                           "hist detector_op_ns{op=\"index-window\"} count=1 ",
                           "hist detector_op_ns{op=\"s-fetch\"} count=0 ",
                           "hist detector_op_ns{op=\"intersect\"} count=0 ",
                           "hist detector_op_ns{op=\"emit\"} count=0 ",
                           "hist detector_query_us count=0 "}) {
    EXPECT_NE(text->find(line), std::string::npos) << line << "\n" << *text;
  }
}

TEST(ClusterTransportTest, TakeIsMoveOutInBothModes) {
  for (const bool threaded : {false, true}) {
    auto transport =
        MakeCluster(figure1::FollowGraph(), MakeOptions(2), threaded);
    ASSERT_TRUE(transport.ok());
    ASSERT_EQ(RunFigure1(transport->get()).size(), 1u);
    auto again = (*transport)->TakeRecommendations();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->empty());
  }
}

TEST(ClusterTransportTest, ClosedTransportRejectsCalls) {
  auto transport =
      MakeCluster(figure1::FollowGraph(), MakeOptions(2), /*threaded=*/true);
  ASSERT_TRUE(transport.ok());
  ASSERT_TRUE((*transport)->Close().ok());
  ASSERT_TRUE((*transport)->Close().ok()) << "Close must be idempotent";
  EdgeEvent event;
  event.edge = {figure1::kB1, figure1::kC1, 1};
  EXPECT_TRUE((*transport)->Publish(event).IsFailedPrecondition());
  EXPECT_TRUE(
      (*transport)->TakeRecommendations().status().IsFailedPrecondition());
}

}  // namespace
}  // namespace magicrecs
