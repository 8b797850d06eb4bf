// Recovery-equivalence integration tests: D is a deterministic function of
// the event stream, so snapshot-load + WAL-replay must reproduce EXACTLY
// the recommendations an uninterrupted run would have produced.

#include "persist/recovery.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "gen/activity_stream.h"
#include "gen/social_graph.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "scoped_temp_dir.h"

namespace magicrecs {
namespace {

/// One partition, one replica, inline: the single-machine deployment.
/// Durable when `persist_dir` is non-empty.
ClusterOptions OnePartition(const std::string& persist_dir) {
  ClusterOptions options;
  options.num_partitions = 1;
  options.detector.k = 2;
  options.detector.window = Minutes(10);
  options.persist.dir = persist_dir;
  return options;
}

/// Deterministic motif-dense workload small enough for CI.
struct TestWorkload {
  StaticGraph follow_graph;
  std::vector<TimestampedEdge> events;
};

TestWorkload MakeTestWorkload(uint64_t num_events) {
  SocialGraphOptions gopt;
  gopt.num_users = 2'000;
  gopt.mean_followees = 20;
  gopt.seed = 11;
  auto graph = SocialGraphGenerator(gopt).Generate();
  EXPECT_TRUE(graph.ok()) << graph.status();

  ActivityStreamOptions sopt;
  sopt.num_events = num_events;
  sopt.events_per_second = 50;
  sopt.seed = 12;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  EXPECT_TRUE(stream.ok()) << stream.status();

  TestWorkload w;
  w.follow_graph = std::move(graph).value();
  w.events = std::move(stream).value().events;
  return w;
}

std::unique_ptr<Cluster> MakeCluster(const TestWorkload& w,
                                     const ClusterOptions& options) {
  auto cluster = Cluster::Create(w.follow_graph, options);
  EXPECT_TRUE(cluster.ok()) << cluster.status();
  return cluster.ok() ? std::move(cluster).value() : nullptr;
}

/// Runs `events[begin, end)` through the cluster, collecting
/// recommendations.
std::vector<Recommendation> RunRange(Cluster* cluster,
                                     const std::vector<TimestampedEdge>& events,
                                     size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    EXPECT_TRUE(cluster->Publish({.edge = events[i]}).ok());
  }
  return cluster->TakeRecommendations();
}

TEST(RecoveryEquivalenceTest, CrashAtMidStreamThenRecoverMatchesUninterrupted) {
  const TestWorkload w = MakeTestWorkload(4'000);
  const size_t half = w.events.size() / 2;

  // Uninterrupted reference run.
  auto baseline = MakeCluster(w, OnePartition(""));
  ASSERT_NE(baseline, nullptr);
  const std::vector<Recommendation> baseline_recs =
      RunRange(baseline.get(), w.events, 0, w.events.size());
  ASSERT_FALSE(baseline_recs.empty())
      << "workload produced no recommendations; equivalence check is vacuous";

  // Durable run: the broker logs every event; crash after half the stream.
  ScopedTempDir dir;
  std::vector<Recommendation> pre_crash_recs;
  {
    auto cluster = MakeCluster(w, OnePartition(dir.path()));
    ASSERT_NE(cluster, nullptr);
    pre_crash_recs = RunRange(cluster.get(), w.events, 0, half);
    // <- crash: in-memory state dropped, only the WAL survives.
  }

  // Restart: Create replays the WAL into the fresh D, then the stream
  // finishes.
  auto restarted = MakeCluster(w, OnePartition(dir.path()));
  ASSERT_NE(restarted, nullptr);
  EXPECT_TRUE(FindLatestSnapshot(dir.path()).status().IsNotFound());
  EXPECT_EQ(restarted->next_sequence(), half);
  EXPECT_EQ(restarted->AggregatedStats().events, half);  // all replayed
  const std::vector<Recommendation> post_recovery_recs =
      RunRange(restarted.get(), w.events, half, w.events.size());

  // Byte-identical recommendations: pre-crash + post-recovery == baseline.
  std::vector<Recommendation> combined = pre_crash_recs;
  combined.insert(combined.end(), post_recovery_recs.begin(),
                  post_recovery_recs.end());
  EXPECT_EQ(combined, baseline_recs);
}

TEST(RecoveryEquivalenceTest, SnapshotPlusWalTailMatchesUninterrupted) {
  const TestWorkload w = MakeTestWorkload(4'000);
  const size_t n = w.events.size();
  const size_t checkpoint_at = n / 2;
  const size_t crash_at = 3 * n / 4;

  auto baseline = MakeCluster(w, OnePartition(""));
  ASSERT_NE(baseline, nullptr);
  const std::vector<Recommendation> baseline_recs =
      RunRange(baseline.get(), w.events, 0, n);
  ASSERT_FALSE(baseline_recs.empty());

  ScopedTempDir dir;
  ClusterOptions options = OnePartition(dir.path());
  options.persist.wal_segment_bytes = 4096;  // rotate so truncation has bite
  std::vector<Recommendation> pre_crash_recs;
  {
    auto cluster = MakeCluster(w, options);
    ASSERT_NE(cluster, nullptr);
    pre_crash_recs = RunRange(cluster.get(), w.events, 0, checkpoint_at);

    const size_t segments_before = ListWalSegments(dir.path()).size();
    ASSERT_TRUE(cluster->Checkpoint().ok());
    EXPECT_LT(ListWalSegments(dir.path()).size(), segments_before)
        << "checkpoint should have reclaimed covered WAL segments";

    const auto tail_recs =
        RunRange(cluster.get(), w.events, checkpoint_at, crash_at);
    pre_crash_recs.insert(pre_crash_recs.end(), tail_recs.begin(),
                          tail_recs.end());
    // <- crash.
  }

  // Restart: S is rebuilt from the follow graph; D comes from the snapshot
  // plus the WAL tail it does not cover.
  auto restarted = MakeCluster(w, options);
  ASSERT_NE(restarted, nullptr);
  EXPECT_TRUE(FindLatestSnapshot(dir.path()).ok());
  EXPECT_EQ(restarted->next_sequence(), crash_at);
  EXPECT_EQ(restarted->AggregatedStats().events, crash_at - checkpoint_at)
      << "only the WAL tail past the snapshot should have been replayed";

  const std::vector<Recommendation> post_recovery_recs =
      RunRange(restarted.get(), w.events, crash_at, n);
  std::vector<Recommendation> combined = pre_crash_recs;
  combined.insert(combined.end(), post_recovery_recs.begin(),
                  post_recovery_recs.end());
  EXPECT_EQ(combined, baseline_recs);
}

TEST(RecoveryTest, ColdStartOnEmptyDirectoryIsOk) {
  ScopedTempDir dir;
  const TestWorkload w = MakeTestWorkload(16);
  const ClusterOptions options = OnePartition(dir.path());
  auto cluster = MakeCluster(w, options);
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->next_sequence(), 0u);

  // The same empty directory through the recovery pass Create runs.
  const auto plan = CompileDiamond(options.detector);
  ASSERT_TRUE(plan.ok()) << plan.status();
  WindowStage window(*plan, options.detector);
  RecoveryStats stats;
  ASSERT_TRUE(RecoveryManager(options.persist)
                  .RecoverDynamicState(&window, &stats)
                  .ok());
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.events_replayed, 0u);
  EXPECT_EQ(stats.next_sequence, 0u);
}

class ClusterRecoveryTest : public ::testing::Test {
 protected:
  ClusterRecoveryTest() : workload_(MakeTestWorkload(500)) {}

  ClusterOptions Options(const std::string& persist_dir) const {
    ClusterOptions options;
    options.num_partitions = 2;
    options.replicas_per_partition = 2;
    options.detector.k = 2;
    options.persist.dir = persist_dir;
    return options;
  }

  Status Feed(Cluster* cluster, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      MAGICRECS_RETURN_IF_ERROR(
          cluster->Publish({.edge = workload_.events[i]}));
    }
    return Status::OK();
  }

  /// The process's one D, which every partition and replica reads.
  static std::string DynamicStateOf(const Cluster& cluster) {
    std::string bytes;
    cluster.dynamic_index().EncodeTo(&bytes);
    return bytes;
  }

  TestWorkload workload_;
};

TEST_F(ClusterRecoveryTest, CheckpointBoundsReplayForLaterRecoveries) {
  ScopedTempDir dir;
  {
    auto cluster = Cluster::Create(workload_.follow_graph, Options(dir.path()));
    ASSERT_TRUE(cluster.ok());

    ASSERT_TRUE(Feed(cluster->get(), 0, 400).ok());
    ASSERT_TRUE((*cluster)->Checkpoint().ok());

    ASSERT_TRUE((*cluster)->KillReplica(0, 1).ok());
    ASSERT_TRUE(Feed(cluster->get(), 400, 500).ok());
    ASSERT_TRUE((*cluster)->RecoverReplica(0, 1).ok());
    // <- process "crashes".
  }

  // The restart loads the snapshot and replays only the WAL tail past it.
  auto restarted = Cluster::Create(workload_.follow_graph, Options(dir.path()));
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  EXPECT_TRUE(FindLatestSnapshot(dir.path()).ok());
  EXPECT_EQ((*restarted)->next_sequence(), 500u);
  EXPECT_EQ((*restarted)->AggregatedStats().events, 100u);

  auto uninterrupted = Cluster::Create(workload_.follow_graph, Options(""));
  ASSERT_TRUE(uninterrupted.ok());
  ASSERT_TRUE(Feed(uninterrupted->get(), 0, 500).ok());
  EXPECT_EQ(DynamicStateOf(**restarted), DynamicStateOf(**uninterrupted));
}

TEST_F(ClusterRecoveryTest, ThreadedModeLogsEveryPublishedEvent) {
  ScopedTempDir dir;
  auto cluster = Cluster::Create(workload_.follow_graph, Options(dir.path()));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Start().ok());
  for (size_t i = 0; i < 200; ++i) {
    EdgeEvent event;
    event.edge = workload_.events[i];
    ASSERT_TRUE((*cluster)->Publish(event).ok());
  }
  (*cluster)->Drain();
  (*cluster)->Stop();

  WalReplayStats stats;
  uint64_t seen = 0;
  ASSERT_TRUE(ReplayWal(
                  dir.path(), 0,
                  [&](const EdgeEvent&) {
                    ++seen;
                    return Status::OK();
                  },
                  &stats)
                  .ok());
  EXPECT_EQ(seen, 200u);
  EXPECT_TRUE(stats.clean_tail);
}

TEST_F(ClusterRecoveryTest, RestartedClusterResumesStateAndSequences) {
  ScopedTempDir dir;
  {
    auto cluster = Cluster::Create(workload_.follow_graph, Options(dir.path()));
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE(Feed(cluster->get(), 0, 300).ok());
    // <- process "crashes": only the persistence directory survives.
  }

  auto uninterrupted =
      Cluster::Create(workload_.follow_graph, Options(""));
  ASSERT_TRUE(uninterrupted.ok());
  ASSERT_TRUE(Feed(uninterrupted->get(), 0, 300).ok());

  // The process came back with the pre-crash D and the right resume point.
  {
    auto restarted =
        Cluster::Create(workload_.follow_graph, Options(dir.path()));
    ASSERT_TRUE(restarted.ok()) << restarted.status();
    EXPECT_EQ((*restarted)->next_sequence(), 300u);
    EXPECT_EQ(DynamicStateOf(**restarted), DynamicStateOf(**uninterrupted));

    // New events must continue the sequence space, not restart at 0 —
    // otherwise the next restart would skip them as already covered.
    ASSERT_TRUE(Feed(restarted->get(), 300, 400).ok());
    ASSERT_TRUE((*restarted)->KillReplica(0, 0).ok());
    ASSERT_TRUE(Feed(restarted->get(), 400, 500).ok());
    ASSERT_TRUE((*restarted)->RecoverReplica(0, 0).ok());
    EXPECT_EQ((*restarted)->next_sequence(), 500u);
    // <- and "crashes" again.
  }

  // And the full restarted lineage equals an uninterrupted cluster.
  auto restarted = Cluster::Create(workload_.follow_graph, Options(dir.path()));
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  EXPECT_EQ((*restarted)->next_sequence(), 500u);
  ASSERT_TRUE(Feed(uninterrupted->get(), 300, 500).ok());
  EXPECT_EQ(DynamicStateOf(**restarted), DynamicStateOf(**uninterrupted));
}

}  // namespace
}  // namespace magicrecs
