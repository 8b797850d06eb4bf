// Full-pipeline integration: generator -> message queue (virtual time) ->
// partitioned cluster -> delivery funnel, reproducing the paper's system
// shape end to end.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "delivery/pipeline.h"
#include "gen/activity_stream.h"
#include "gen/figure1.h"
#include "gen/social_graph.h"
#include "stream/delay_model.h"
#include "stream/latency_tracker.h"
#include "stream/simulator.h"

namespace magicrecs {
namespace {

TEST(EndToEndTest, Figure1ThroughTheWholePipeline) {
  // Figure 1 scenario with realistic queue delays and a delivery pipeline.
  auto cluster = [] {
    ClusterOptions copt;
    copt.num_partitions = 4;
    copt.detector.k = 2;
    copt.detector.window = Minutes(10);
    auto c = Cluster::Create(figure1::FollowGraph(), copt);
    EXPECT_TRUE(c.ok());
    return std::move(c).value();
  }();

  SimulatedClock clock;
  VirtualTimeSimulator simulator(&clock);
  Rng rng(42);
  auto delay = MakeTwitterCalibratedDelayModel();
  const Timestamp day_noon = Hours(12);  // waking hours everywhere
  simulator.ScheduleStream(figure1::DynamicEdges(day_noon),
                           ActionType::kFollow, *delay, &rng);

  DeliveryPipeline::Options popt;
  popt.quiet_hours.synthetic_timezone_spread = 0;
  DeliveryPipeline pipeline(popt);
  LatencyTracker latency;

  std::vector<Notification> delivered;
  simulator.Run([&](const EdgeEvent& event, Timestamp deliver_time) {
    latency.RecordQueueDelay(deliver_time - event.edge.created_at);
    ASSERT_TRUE(cluster->Publish(event).ok());
    for (const Recommendation& rec : cluster->TakeRecommendations()) {
      if (pipeline.Process(rec, clock.Now(), &delivered) ==
          DeliveryOutcome::kDelivered) {
        latency.RecordEndToEnd(clock.Now() - rec.event_time);
      }
    }
  });

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].user, figure1::kA2);
  EXPECT_EQ(delivered[0].item, figure1::kC2);
  // End-to-end latency is dominated by the queue delay (seconds), not the
  // graph query (microseconds).
  EXPECT_GT(latency.end_to_end().Max(), Seconds(1));
}

TEST(EndToEndTest, SyntheticDayProducesFunnelShape) {
  SocialGraphOptions gopt;
  gopt.num_users = 600;
  gopt.mean_followees = 15;
  gopt.seed = 31;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 8'000;
  sopt.events_per_second = 300;
  sopt.burst_fraction = 0.5;
  sopt.start_time = Hours(12);
  sopt.seed = 37;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());

  ClusterOptions copt;
  copt.num_partitions = 5;
  copt.detector.k = 2;
  copt.detector.window = Minutes(10);
  auto cluster = Cluster::Create(*graph, copt);
  ASSERT_TRUE(cluster.ok());

  DeliveryPipeline pipeline;
  std::vector<Notification> delivered;
  for (const TimestampedEdge& e : stream->events) {
    ASSERT_TRUE((*cluster)->Publish({.edge = e}).ok());
    for (const Recommendation& rec : (*cluster)->TakeRecommendations()) {
      pipeline.Process(rec, e.created_at, &delivered);
    }
  }

  const FunnelStats& funnel = pipeline.funnel();
  // The funnel must be strictly narrowing and actually filter something,
  // the paper's "billions of raw candidates -> millions of notifications".
  EXPECT_GT(funnel.raw_candidates, 0u);
  EXPECT_GE(funnel.raw_candidates, funnel.after_dedup);
  EXPECT_GE(funnel.after_dedup, funnel.after_quiet_hours);
  EXPECT_GE(funnel.after_quiet_hours, funnel.delivered);
  EXPECT_GT(funnel.delivered, 0u);
  EXPECT_GT(funnel.ReductionFactor(), 1.0);
}

TEST(EndToEndTest, VirtualTimeLatencyMatchesCalibratedModel) {
  // Push 5k events through the calibrated queue model in virtual time and
  // verify the measured delay distribution matches the paper's quantiles.
  SimulatedClock clock;
  VirtualTimeSimulator simulator(&clock);
  Rng rng(7);
  auto delay = MakeTwitterCalibratedDelayModel();

  std::vector<TimestampedEdge> edges;
  edges.reserve(5'000);
  Timestamp t = 0;
  for (int i = 0; i < 5'000; ++i) {
    t += Millis(10);
    edges.push_back({static_cast<VertexId>(i % 100),
                     static_cast<VertexId>(100 + i % 50), t});
  }
  simulator.ScheduleStream(edges, ActionType::kFollow, *delay, &rng);

  LatencyTracker latency;
  simulator.Run([&](const EdgeEvent& event, Timestamp deliver_time) {
    latency.RecordQueueDelay(deliver_time - event.edge.created_at);
  });

  EXPECT_NEAR(latency.queue_delay().Median() / 1e6, 7.0, 0.8);
  EXPECT_NEAR(latency.queue_delay().Percentile(99) / 1e6, 15.0, 2.0);
}

TEST(EndToEndTest, DedupAbsorbsRetriggeredMotifs) {
  // A fourth co-follower retriggers the motif; delivery dedup collapses the
  // two candidates into one push.
  StaticGraphBuilder builder(30);
  ASSERT_TRUE(builder.AddEdges({{0, 10}, {0, 11}, {0, 12}}).ok());
  auto follow = builder.Build();
  ASSERT_TRUE(follow.ok());

  ClusterOptions copt;
  copt.num_partitions = 2;
  copt.detector.k = 2;
  copt.detector.window = Minutes(10);
  auto cluster = Cluster::Create(*follow, copt);
  ASSERT_TRUE(cluster.ok());

  DeliveryPipeline::Options popt;
  popt.quiet_hours.synthetic_timezone_spread = 0;
  DeliveryPipeline pipeline(popt);
  std::vector<Notification> delivered;
  const Timestamp noon = Hours(12);
  for (VertexId b : {10u, 11u, 12u}) {
    ASSERT_TRUE((*cluster)->Publish({.edge = {b, 20, noon + Seconds(b)}}).ok());
    for (const Recommendation& rec : (*cluster)->TakeRecommendations()) {
      pipeline.Process(rec, noon + Seconds(b), &delivered);
    }
  }
  EXPECT_EQ(pipeline.funnel().raw_candidates, 2u);  // k=2 then k=3 retrigger
  EXPECT_EQ(delivered.size(), 1u);                  // deduped to one push
}

}  // namespace
}  // namespace magicrecs
