// End-to-end pipeline tracing through a real 4-daemon partition group: a
// sampled publish originates a TraceContext at the broker, every daemon
// stamps dequeue and detector-apply and echoes them back on its ack tail,
// the gather closes the trace, and TakeTraces hands the merged stamp list
// to the operator. Plus the kStatsText scrape surface over the same group.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fanout_test_util.h"
#include "gen/figure1.h"
#include "util/trace.h"

namespace magicrecs {
namespace {

using fanout_test::Group;
using fanout_test::StartGroup;
using fanout_test::ToEvents;

std::vector<EdgeEvent> Figure1Events() {
  return ToEvents(figure1::DynamicEdges(0));
}

const TraceStamp* FindStamp(const TraceContext& trace, TraceStage stage,
                            uint32_t party) {
  for (const TraceStamp& stamp : trace.stamps) {
    if (stamp.stage == static_cast<uint8_t>(stage) && stamp.party == party) {
      return &stamp;
    }
  }
  return nullptr;
}

TEST(FanoutTraceTest, SampledPublishGathersStampsFromAllFourDaemons) {
  const StaticGraph graph = figure1::FollowGraph();
  net::FanoutClusterOptions fopt;
  fopt.trace_sample_every = 1;  // sample every publish
  Group g = StartGroup(graph, /*group_size=*/4, /*replicas=*/1, /*k=*/2,
                       fopt);

  const std::vector<EdgeEvent> events = Figure1Events();
  ASSERT_TRUE(g.broker->PublishBatch(events).ok());
  ASSERT_TRUE(g.broker->Drain().ok());
  auto recs = g.broker->TakeRecommendations();
  ASSERT_TRUE(recs.ok()) << recs.status();

  const std::vector<TraceContext> traces = g.broker->TakeTraces();
  ASSERT_EQ(traces.size(), 1u);
  const TraceContext& trace = traces.front();
  EXPECT_TRUE(trace.active());
  EXPECT_GT(trace.origin_us, 0);
  ASSERT_GE(trace.stamps.size(), 4u)
      << "a 4-daemon trace must carry at least one stamp per process: "
      << trace.ToString();

  // One broker-encode and one gather, both stamped by the broker.
  const TraceStamp* encode =
      FindStamp(trace, TraceStage::kBrokerEncode, kTracePartyBroker);
  const TraceStamp* gather =
      FindStamp(trace, TraceStage::kGather, kTracePartyBroker);
  ASSERT_NE(encode, nullptr) << trace.ToString();
  ASSERT_NE(gather, nullptr) << trace.ToString();
  EXPECT_GE(encode->at_us, trace.origin_us);
  EXPECT_GE(gather->at_us, encode->at_us)
      << "broker stamps must be monotone within the broker process";

  // Every daemon stamped dequeue and detector-apply with its own
  // partition id, monotone within that daemon.
  for (uint32_t p = 0; p < 4; ++p) {
    const TraceStamp* dequeue =
        FindStamp(trace, TraceStage::kDaemonDequeue, p);
    const TraceStamp* apply =
        FindStamp(trace, TraceStage::kDetectorApply, p);
    ASSERT_NE(dequeue, nullptr)
        << "partition " << p << " missing dequeue: " << trace.ToString();
    ASSERT_NE(apply, nullptr)
        << "partition " << p << " missing apply: " << trace.ToString();
    EXPECT_GE(apply->at_us, dequeue->at_us)
        << "daemon " << p << " stamps must be monotone";
  }

  // The ring was drained: a second take returns nothing.
  EXPECT_TRUE(g.broker->TakeTraces().empty());
}

TEST(FanoutTraceTest, UnsampledPublishesCarryNoTraces) {
  const StaticGraph graph = figure1::FollowGraph();
  net::FanoutClusterOptions fopt;
  fopt.trace_sample_every = 0;  // sampling off
  Group g = StartGroup(graph, 2, 1, 2, fopt);

  ASSERT_TRUE(g.broker->PublishBatch(Figure1Events()).ok());
  ASSERT_TRUE(g.broker->Drain().ok());
  ASSERT_TRUE(g.broker->TakeRecommendations().ok());
  EXPECT_TRUE(g.broker->TakeTraces().empty());
}

TEST(FanoutTraceTest, EveryTracedPublishParksItsOwnTrace) {
  const StaticGraph graph = figure1::FollowGraph();
  net::FanoutClusterOptions fopt;
  fopt.trace_sample_every = 1;
  Group g = StartGroup(graph, 2, 1, 2, fopt);

  const std::vector<EdgeEvent> events = Figure1Events();
  constexpr size_t kPublishes = 5;
  for (size_t i = 0; i < kPublishes; ++i) {
    ASSERT_TRUE(g.broker->PublishBatch(events).ok());
  }
  ASSERT_TRUE(g.broker->Drain().ok());
  ASSERT_TRUE(g.broker->TakeRecommendations().ok());
  const std::vector<TraceContext> traces = g.broker->TakeTraces();
  ASSERT_EQ(traces.size(), kPublishes);
  // Distinct ids, and every trace closed by the same gather pass.
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_NE(traces[i].Find(TraceStage::kGather), nullptr)
        << traces[i].ToString();
    for (size_t j = i + 1; j < traces.size(); ++j) {
      EXPECT_NE(traces[i].trace_id, traces[j].trace_id);
    }
  }
}

TEST(FanoutTraceTest, StatsTextScrapeCoversBrokerAndEveryDaemon) {
  const StaticGraph graph = figure1::FollowGraph();
  Group g = StartGroup(graph, 2, 1);

  ASSERT_TRUE(g.broker->PublishBatch(Figure1Events()).ok());
  ASSERT_TRUE(g.broker->Drain().ok());
  ASSERT_TRUE(g.broker->TakeRecommendations().ok());

  auto text = g.broker->GetStatsText();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("# source broker\n"), std::string::npos) << *text;
  // One section per daemon, tagged with its partition.
  EXPECT_NE(text->find("partition 0\n"), std::string::npos) << *text;
  EXPECT_NE(text->find("partition 1\n"), std::string::npos) << *text;
  // The per-stage publish-apply histogram and the server counters made it
  // into the exposition with non-trivial values (the scrape contract CI
  // greps for).
  EXPECT_NE(text->find("hist publish_apply_us{partition="),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("counter rpc_requests_served"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("counter detector_events"), std::string::npos)
      << *text;
}

TEST(FanoutTraceTest, ScrapeDegradesPerDaemonWhenOneIsDown) {
  const StaticGraph graph = figure1::FollowGraph();
  net::FanoutClusterOptions fopt;
  fopt.policy = net::FanoutPolicy::kQuorum;
  fopt.connect_timeout_ms = 2'000;
  Group g = StartGroup(graph, 2, 1, 2, fopt);
  g.daemons[1].server->Stop();

  auto text = g.broker->GetStatsText();
  ASSERT_TRUE(text.ok())
      << "a scrape into a degraded cluster must not fail wholesale: "
      << text.status();
  EXPECT_NE(text->find("# source broker\n"), std::string::npos);
  EXPECT_NE(text->find("partition 0\n"), std::string::npos) << *text;
  // The dead daemon's section is an annotated header, not silence.
  EXPECT_NE(text->find("partition 1 unreachable:"), std::string::npos)
      << *text;
}

}  // namespace
}  // namespace magicrecs
