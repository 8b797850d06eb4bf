// Batch publishing must be durably indistinguishable from per-event
// publishing: Cluster::PublishBatch, before or after Start(), sequences
// and WAL-appends a whole wire batch under one lock acquisition, and the log
// that results has to carry every event, in order, with contiguous
// sequences — exactly what a per-event run would have written.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "gen/activity_stream.h"
#include "gen/social_graph.h"
#include "persist/wal.h"
#include "scoped_temp_dir.h"

namespace magicrecs {
namespace {

struct TestWorkload {
  StaticGraph follow_graph;
  std::vector<TimestampedEdge> events;
};

TestWorkload MakeTestWorkload(uint64_t num_events) {
  SocialGraphOptions gopt;
  gopt.num_users = 500;
  gopt.mean_followees = 12;
  gopt.seed = 21;
  auto graph = SocialGraphGenerator(gopt).Generate();
  EXPECT_TRUE(graph.ok()) << graph.status();
  ActivityStreamOptions sopt;
  sopt.num_events = num_events;
  sopt.seed = 22;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  EXPECT_TRUE(stream.ok()) << stream.status();
  TestWorkload w;
  w.follow_graph = std::move(graph).value();
  w.events = std::move(stream).value().events;
  return w;
}

std::vector<EdgeEvent> WalContents(const std::string& dir) {
  std::vector<EdgeEvent> out;
  WalReplayStats stats;
  const Status s = ReplayWal(
      dir, 0,
      [&](const EdgeEvent& event) {
        out.push_back(event);
        return Status::OK();
      },
      &stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(stats.clean_tail);
  return out;
}

TEST(WalBatchTest, BatchPublishLogsEveryEventInSequenceOrder) {
  const TestWorkload w = MakeTestWorkload(600);

  for (const bool threaded : {false, true}) {
    ScopedTempDir dir;
    ClusterOptions options;
    options.num_partitions = 2;
    options.detector.k = 2;
    options.detector.window = Minutes(10);
    options.persist.dir = dir.path();

    {
      auto transport = Cluster::Create(w.follow_graph, options);
      ASSERT_TRUE(transport.ok()) << transport.status();
      if (threaded) {
        ASSERT_TRUE((*transport)->Start().ok());
      }
      std::vector<EdgeEvent> batch;
      for (const TimestampedEdge& edge : w.events) {
        EdgeEvent event;
        event.edge = edge;
        batch.push_back(event);
      }
      // Mix per-event and batched publishes so the interleaving of the two
      // sequencing paths is what gets checked.
      const size_t third = batch.size() / 3;
      for (size_t i = 0; i < third; ++i) {
        ASSERT_TRUE((*transport)->Publish(batch[i]).ok());
      }
      ASSERT_TRUE((*transport)
                      ->PublishBatch(std::span(batch.data() + third,
                                               batch.size() - third))
                      .ok());
      ASSERT_TRUE((*transport)->Drain().ok());
      ASSERT_TRUE((*transport)->Close().ok());
    }

    const std::vector<EdgeEvent> logged = WalContents(dir.path());
    ASSERT_EQ(logged.size(), w.events.size()) << "threaded " << threaded;
    for (size_t i = 0; i < logged.size(); ++i) {
      EXPECT_EQ(logged[i].sequence, i) << "threaded " << threaded;
      EXPECT_EQ(logged[i].edge.src, w.events[i].src);
      EXPECT_EQ(logged[i].edge.dst, w.events[i].dst);
      EXPECT_EQ(logged[i].edge.created_at, w.events[i].created_at);
      if (logged[i].sequence != i) break;  // don't spam per-event failures
    }
  }
}

TEST(WalBatchTest, EmptyBatchIsANoOp) {
  const TestWorkload w = MakeTestWorkload(10);
  ScopedTempDir dir;
  ClusterOptions options;
  options.num_partitions = 1;
  options.detector.k = 2;
  options.detector.window = Minutes(10);
  options.persist.dir = dir.path();
  {
    auto transport = Cluster::Create(w.follow_graph, options);
    ASSERT_TRUE(transport.ok());
    ASSERT_TRUE((*transport)->PublishBatch({}).ok());
    ASSERT_TRUE((*transport)->Close().ok());
  }
  EXPECT_TRUE(WalContents(dir.path()).empty());
}

}  // namespace
}  // namespace magicrecs
