#include "cluster/cluster.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <set>
#include <span>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "gen/activity_stream.h"
#include "gen/figure1.h"
#include "gen/social_graph.h"
#include "persist/wal.h"
#include "util/metrics.h"
#include "../persist/scoped_temp_dir.h"

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

// Publishes `edges` one event at a time. Before Start() each publish
// applies before it returns.
void PublishEdges(Cluster& cluster, std::span<const TimestampedEdge> edges) {
  for (const TimestampedEdge& e : edges) {
    EXPECT_TRUE(cluster.Publish({.edge = e}).ok());
  }
}

TEST(ClusterTest, InvalidOptionsRejected) {
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), MakeOptions(0))
                  .status()
                  .IsInvalidArgument());
  ClusterOptions too_many_replicas = MakeOptions(2, 65);
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), too_many_replicas)
                  .status()
                  .IsInvalidArgument());
  // Detector options are validated when the partition engines compile.
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), MakeOptions(1, 1, 0))
                  .status()
                  .IsInvalidArgument());
  ClusterOptions zero_window = MakeOptions(1);
  zero_window.detector.window = 0;
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), zero_window)
                  .status()
                  .IsInvalidArgument());
  // Start() splits inbox_capacity between two inboxes, and a zero-capacity
  // inbox is unbounded: 0 would queue without backpressure.
  ClusterOptions unbounded_inbox = MakeOptions(1);
  unbounded_inbox.inbox_capacity = 0;
  EXPECT_TRUE(Cluster::Create(figure1::FollowGraph(), unbounded_inbox)
                  .status()
                  .IsInvalidArgument());
}

TEST(ClusterTest, OnePartitionShardIsTheFullFollowerIndex) {
  // One machine is a one-partition cluster: its shard is the whole
  // follower index, inverted from the follow graph.
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const StaticGraph& s = (*cluster)->replica(0, 0).static_index();
  EXPECT_EQ(s.num_edges(), figure1::FollowGraph().num_edges());
  // followers(B1) = {A1, A2}
  const auto followers = s.Neighbors(figure1::kB1);
  ASSERT_EQ(followers.size(), 2u);
  EXPECT_EQ(followers[0], figure1::kA1);
  EXPECT_EQ(followers[1], figure1::kA2);
}

TEST(ClusterTest, CapChangesDetectionOutcome) {
  // A0 follows B1, B2 (B2 more popular via follower B3), plus popular B4,
  // B5. With cap=2 only {B4, B5} (most-followed) survive, so a motif via
  // B1+B2 is no longer visible for A0.
  StaticGraphBuilder builder(20);
  ASSERT_TRUE(builder.AddEdges({{0, 1}, {0, 2}, {0, 4}, {0, 5}}).ok());
  // Give B4 and B5 many followers.
  for (VertexId a = 10; a < 16; ++a) {
    ASSERT_TRUE(builder.AddEdge(a, 4).ok());
    ASSERT_TRUE(builder.AddEdge(a, 5).ok());
  }
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());

  ClusterOptions capped_opt = MakeOptions(1);
  capped_opt.max_influencers_per_user = 2;
  auto capped_cluster = Cluster::Create(*g, capped_opt);
  ASSERT_TRUE(capped_cluster.ok());

  auto full_cluster = Cluster::Create(*g, MakeOptions(1));
  ASSERT_TRUE(full_cluster.ok());

  const std::vector<TimestampedEdge> edges = {{1, 9, 1}, {2, 9, 2}};
  PublishEdges(**capped_cluster, edges);
  PublishEdges(**full_cluster, edges);

  // motif via B1+B2 found
  EXPECT_EQ((*full_cluster)->TakeRecommendations()->size(), 1u);
  // pruned away by the influencer cap
  EXPECT_TRUE((*capped_cluster)->TakeRecommendations()->empty());
}

TEST(ClusterTest, InlineFigure1MatchesSingleMachine) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(4));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  PublishEdges(**cluster, figure1::DynamicEdges(0));
  const std::vector<Recommendation> recs =
      (*cluster)->TakeRecommendations().value();
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
    PublishEdges(**cluster, stream->events);
    const std::vector<Recommendation> recs =
        (*cluster)->TakeRecommendations().value();
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
  PublishEdges(**cluster, figure1::DynamicEdges(0));
  const std::vector<Recommendation> recs =
      (*cluster)->TakeRecommendations().value();
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

  // Both clusters take the same calls; only Start() differs. A replica is
  // killed a third of the way in and recovered at two thirds, quiesced
  // (Drain() is a no-op before Start()), so the query shares move the same
  // way in both modes.
  constexpr uint32_t kVictimPartition = 1;
  const std::span<const TimestampedEdge> all(stream->events);
  const size_t third = all.size() / 3;
  const auto run = [&](bool started, std::vector<Recommendation>* recs,
                       std::vector<ReplicaStats>* stats) {
    auto cluster = Cluster::Create(*graph, MakeOptions(3, 2));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    if (started) {
      ASSERT_TRUE((*cluster)->Start().ok());
    }
    PublishEdges(**cluster, all.first(third));
    (*cluster)->Drain();
    ASSERT_TRUE((*cluster)->KillReplica(kVictimPartition, 0).ok());
    PublishEdges(**cluster, all.subspan(third, third));
    (*cluster)->Drain();
    ASSERT_TRUE((*cluster)->RecoverReplica(kVictimPartition, 0).ok());
    PublishEdges(**cluster, all.subspan(2 * third));
    (*cluster)->Drain();
    (*cluster)->Stop();
    *recs = (*cluster)->TakeRecommendations().value();
    *stats = (*cluster)->PerReplicaStats();
  };
  std::vector<Recommendation> inline_recs, threaded_recs;
  std::vector<ReplicaStats> inline_stats, threaded_stats;
  run(/*started=*/false, &inline_recs, &inline_stats);
  run(/*started=*/true, &threaded_recs, &threaded_stats);

  EXPECT_FALSE(inline_recs.empty()) << "workload produced no motifs";
  EXPECT_EQ(Pairs(threaded_recs), Pairs(inline_recs));
  // One query loop: each replica ran the same queries and emitted the same
  // recommendations in both modes, the outage included.
  ASSERT_EQ(threaded_stats.size(), inline_stats.size());
  for (size_t i = 0; i < inline_stats.size(); ++i) {
    EXPECT_EQ(threaded_stats[i].ToString(), inline_stats[i].ToString());
  }
  // The outage moved queries: the victim ran fewer than its sibling.
  const ReplicaStats& victim = inline_stats[kVictimPartition * 2];
  const ReplicaStats& sibling = inline_stats[kVictimPartition * 2 + 1];
  EXPECT_LT(victim.threshold_queries, sibling.threshold_queries);
}

TEST(ClusterTest, FailedApplyIsReturnedInlineAndCountedThreaded) {
  // strict_time_order rejects an in-edge older than the newest one of its
  // destination: the second event below fails to apply. The process's one D
  // rejects it once, and neither partition of a 2x2 cluster can query it,
  // so each partition counts one failure, inline or threaded.
  ClusterOptions opt = MakeOptions(2, 2);
  opt.detector.strict_time_order = true;
  EdgeEvent newer, older;
  newer.edge = {figure1::kB1, figure1::kC1, Seconds(100)};
  older.edge = {figure1::kB2, figure1::kC1, Seconds(50)};
  // The registry is process-wide, so compare against a reading taken first.
  const Counter* errors[] = {
      MetricsRegistry::Default()->GetCounter("publish_apply_errors",
                                             {{"partition", "0"}}),
      MetricsRegistry::Default()->GetCounter("publish_apply_errors",
                                             {{"partition", "1"}})};
  const auto total_errors = [&] {
    return errors[0]->Value() + errors[1]->Value();
  };

  auto inline_cluster = Cluster::Create(figure1::FollowGraph(), opt);
  ASSERT_TRUE(inline_cluster.ok()) << inline_cluster.status();
  ASSERT_TRUE((*inline_cluster)->Publish(newer).ok());
  uint64_t before = total_errors();
  EXPECT_TRUE((*inline_cluster)->Publish(older).IsFailedPrecondition());
  EXPECT_EQ(total_errors(), before + 2);

  auto threaded = Cluster::Create(figure1::FollowGraph(), opt);
  ASSERT_TRUE(threaded.ok()) << threaded.status();
  ASSERT_TRUE((*threaded)->Start().ok());
  before = total_errors();
  ASSERT_TRUE((*threaded)->Publish(newer).ok());
  ASSERT_TRUE((*threaded)->Publish(older).ok());  // accepted; fails on apply
  (*threaded)->Drain();
  (*threaded)->Stop();
  EXPECT_EQ(total_errors(), before + 2);
}

std::vector<EdgeEvent> ToEvents(const std::vector<TimestampedEdge>& edges) {
  std::vector<EdgeEvent> events(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) events[i].edge = edges[i];
  return events;
}

// The recommendations of a never-started cluster fed `events` one at a
// time: the oracle for every threaded publish schedule.
std::multiset<std::pair<VertexId, VertexId>> InlinePairs(
    const StaticGraph& graph, const ClusterOptions& opt,
    const std::vector<EdgeEvent>& events) {
  auto cluster = Cluster::Create(graph, opt);
  EXPECT_TRUE(cluster.ok()) << cluster.status();
  for (const EdgeEvent& event : events) {
    EXPECT_TRUE((*cluster)->Publish(event).ok());
  }
  return Pairs((*cluster)->TakeRecommendations().value());
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
  EXPECT_EQ(Pairs((*threaded)->TakeRecommendations().value()), reference);
}

TEST(ClusterTest, ConcurrentPublishersMatchTheirWalReplayedInline) {
  // Two threads publish into one durable 4x2 cluster at once. Publishers
  // sequence and log a batch under the lock that also hands it to the
  // window half — to the window thread once started, run on the spot
  // before — so the WAL holds the order D saw: replaying it through a
  // never-started cluster must reproduce the recommendations, either way.
  const Workload w = MakeWorkload(8'000);
  const std::span<const EdgeEvent> all(w.events);
  for (const bool started : {true, false}) {
    SCOPED_TRACE(started ? "started" : "never started");
    ClusterOptions opt = MakeOptions(4, 2);
    ScopedTempDir dir;
    opt.persist.dir = dir.path();
    auto cluster = Cluster::Create(w.graph, opt);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    if (started) {
      ASSERT_TRUE((*cluster)->Start().ok());
    }
    std::atomic<int> failed_publishes{0};
    std::vector<std::thread> publishers;
    for (const std::span<const EdgeEvent> part :
         {all.first(all.size() / 2), all.subspan(all.size() / 2)}) {
      publishers.emplace_back([&, part] {
        for (size_t i = 0; i < part.size(); i += 32) {
          const auto batch =
              part.subspan(i, std::min<size_t>(32, part.size() - i));
          if (!(*cluster)->PublishBatch(batch).ok()) ++failed_publishes;
        }
      });
    }
    for (std::thread& publisher : publishers) publisher.join();
    (*cluster)->Drain();
    (*cluster)->Stop();
    EXPECT_EQ(failed_publishes.load(), 0);
    const auto pairs = Pairs((*cluster)->TakeRecommendations().value());
    EXPECT_FALSE(pairs.empty()) << "workload produced no motifs";

    std::vector<EdgeEvent> logged;
    ASSERT_TRUE(ReplayWal(
                    dir.path(), 0,
                    [&](const EdgeEvent& event) {
                      logged.push_back(event);
                      return Status::OK();
                    },
                    nullptr)
                    .ok());
    ASSERT_EQ(logged.size(), all.size());
    EXPECT_EQ(pairs, InlinePairs(w.graph, MakeOptions(4, 2), logged));
  }
}

TEST(ClusterTest, ControlPlaneRacingTheDataPlaneMatchesInline) {
  // The daemon's RPC workers serve scrapes, checkpoints and replica ops
  // while other connections publish. One thread publishes a generated
  // stream in batches of 16 into a started, durable 2x2 cluster; another
  // loops over every control-plane call meanwhile, pausing before each so
  // that it lands on queued batches. Each of those runs alone and quiesces
  // first, so every event is still answered exactly once: the
  // recommendations are a never-started cluster's over the same stream.
  // The small inbox paces the publisher to the workers, so the loop runs
  // until the stream ends; at k = 1 every event queries, so a partition's
  // two replica workers drift apart, and a replica op that did not quiesce
  // would answer an event twice or not at all.
  // Failures print the seed; rerun with MAGICRECS_FUZZ_SEED=<seed>.
  const char* env = std::getenv("MAGICRECS_FUZZ_SEED");
  const uint64_t seed = env != nullptr ? std::strtoull(env, nullptr, 10) : 53;
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  SocialGraphOptions gopt;
  gopt.num_users = 300;
  gopt.mean_followees = 10;
  gopt.seed = seed;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());
  ActivityStreamOptions sopt;
  sopt.num_events = 2'000;
  sopt.seed = seed + 1;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());
  std::vector<EdgeEvent> events;
  for (const TimestampedEdge& edge : stream->events) {
    events.push_back({.edge = edge});
  }
  const std::span<const EdgeEvent> all(events);

  const ClusterOptions opt = MakeOptions(2, 2, /*k=*/1);
  ClusterOptions durable = opt;
  ScopedTempDir dir;
  durable.persist.dir = dir.path();
  durable.inbox_capacity = 64;
  auto cluster = Cluster::Create(*graph, durable);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ASSERT_TRUE((*cluster)->Start().ok());

  std::atomic<bool> published{false};
  Status publish_error;
  std::thread publisher([&] {
    for (size_t i = 0; i < all.size() && publish_error.ok(); i += 16) {
      publish_error = (*cluster)->PublishBatch(
          all.subspan(i, std::min<size_t>(16, all.size() - i)));
    }
    published = true;
  });
  size_t rounds = 0;
  Status control_error;
  std::thread control([&] {
    const auto check = [&](const Status& s) {
      if (control_error.ok()) control_error = s;
    };
    const auto pause = [] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    };
    do {
      pause();
      check((*cluster)->GetStatsText().status());
      pause();
      check((*cluster)->Checkpoint(static_cast<Timestamp>(rounds)));
      for (uint32_t p = 0; p < 2; ++p) {
        pause();
        check((*cluster)->KillReplica(p, 1));
        pause();
        check((*cluster)->RecoverReplica(p, 1));
      }
      ++rounds;
    } while (!published);
  });
  publisher.join();
  control.join();
  EXPECT_TRUE(publish_error.ok()) << publish_error;
  EXPECT_TRUE(control_error.ok()) << control_error;
  EXPECT_GT(rounds, 0u);

  ASSERT_TRUE((*cluster)->Drain().ok());
  EXPECT_EQ((*cluster)->AggregatedStats().events, events.size());
  auto recs = (*cluster)->TakeRecommendations();
  ASSERT_TRUE(recs.ok()) << recs.status();
  const auto reference = InlinePairs(*graph, opt, events);
  EXPECT_FALSE(reference.empty()) << "workload produced no motifs";
  EXPECT_EQ(Pairs(*recs), reference);
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
  EXPECT_EQ(Pairs((*threaded)->TakeRecommendations().value()), reference);
}

TEST(ClusterTest, FailedEventMidBatchDoesNotStopTheBatch) {
  // `older` is older than C2's newest in-edge under strict_time_order, so it
  // fails; `later` then completes the Figure 1 diamond (A2 follows B1 and
  // B2, both now point to C2) and must still be applied. Both modes log the
  // whole batch, so both must apply it whole: inline reports the failure,
  // threaded only counts it.
  ClusterOptions opt = MakeOptions(1);
  opt.detector.strict_time_order = true;
  EdgeEvent newer, older, later;
  newer.edge = {figure1::kB1, figure1::kC2, Seconds(100)};
  older.edge = {figure1::kB2, figure1::kC2, Seconds(50)};
  later.edge = {figure1::kB2, figure1::kC2, Seconds(101)};
  const std::vector<EdgeEvent> batch = {newer, older, later};
  const Counter* errors = MetricsRegistry::Default()->GetCounter(
      "publish_apply_errors", {{"partition", "0"}});

  for (const bool inline_mode : {true, false}) {
    SCOPED_TRACE(inline_mode ? "inline" : "threaded");
    auto transport = Cluster::Create(figure1::FollowGraph(), opt);
    ASSERT_TRUE(transport.ok()) << transport.status();
    if (!inline_mode) {
      ASSERT_TRUE((*transport)->Start().ok());
    }
    const uint64_t before = errors->Value();
    const Status published = (*transport)->PublishBatch(batch);
    if (inline_mode) {
      EXPECT_TRUE(published.IsFailedPrecondition()) << published;
    } else {
      EXPECT_TRUE(published.ok()) << published;  // fails on apply
    }
    ASSERT_TRUE((*transport)->Drain().ok());
    EXPECT_EQ((*transport)->events_published(), batch.size());
    EXPECT_EQ(errors->Value(), before + 1);
    auto recs = (*transport)->TakeRecommendations();
    ASSERT_TRUE(recs.ok()) << recs.status();
    ASSERT_EQ(recs->size(), 1u);
    EXPECT_EQ((*recs)[0].user, figure1::kA2);
    EXPECT_EQ((*recs)[0].item, figure1::kC2);
    ASSERT_TRUE((*transport)->Close().ok());
  }
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

// The registry is process-wide, so timing tests read publish_apply_us
// samples as deltas from a reading taken first.
uint64_t ApplySamples(uint32_t partition) {
  return MetricsRegistry::Default()
      ->GetHistogram("publish_apply_us",
                     {{"partition", std::to_string(partition)}})
      ->Snapshot()
      .Count();
}

TEST(ClusterTest, InlineApplyTimesTheEmittingReplicaOnly) {
  // One sample is one query half, inline as in a worker. At k = 1 sequence
  // 0 queries: through one partition with two replicas it is one sample,
  // from the replica whose turn it is. At k = 2 it stops below k ("no
  // query"), and no replica records anything.
  for (const uint32_t k : {1u, 2u}) {
    auto cluster =
        Cluster::Create(figure1::FollowGraph(), MakeOptions(1, 2, k));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    const uint64_t before = ApplySamples(0);
    EdgeEvent event;
    event.edge = {figure1::kB1, figure1::kC1, 1};
    ASSERT_TRUE((*cluster)->Publish(event).ok());
    EXPECT_EQ(ApplySamples(0) - before, k == 1 ? 1u : 0u) << "k=" << k;
    EXPECT_EQ((*cluster)->AggregatedStats().query_micros.Count(),
              k == 1 ? 1u : 0u)
        << "k=" << k;
  }
}

TEST(ClusterTest, OneEventInThePeriodIsTimedInlineAndThreaded) {
  // N is not a multiple of the period: sequences 0, 64, ..., 192 are the
  // ceil(N / 64) timing samples. The window half times each once for the
  // process, and each partition times its query half on the replica whose
  // turn it is. At k = 1 every event queries, so every sample has a query
  // half.
  constexpr uint32_t kPartitions = 2;
  constexpr uint32_t kReplicas = 2;
  constexpr size_t kEvents = 3 * kTimingSamplePeriod + 13;
  constexpr uint64_t kSamples =
      (kEvents + kTimingSamplePeriod - 1) / kTimingSamplePeriod;
  const Workload w = MakeWorkload(kEvents);
  ASSERT_EQ(w.events.size(), kEvents);
  const auto check = [&](const Cluster& cluster, const uint64_t* before,
                         const char* mode) {
    EXPECT_EQ(cluster.AggregatedStats()
                  .stage_nanos[static_cast<size_t>(PlanStage::kIndexInsert)]
                  .Count(),
              kSamples)
        << mode;
    for (uint32_t p = 0; p < kPartitions; ++p) {
      EXPECT_EQ(ApplySamples(p) - before[p], kSamples)
          << mode << " partition " << p;
      uint64_t queries_timed = 0;
      for (uint32_t r = 0; r < kReplicas; ++r) {
        queries_timed += cluster.replica(p, r).stats().query_micros.Count();
      }
      // Only the replica that emits a timed event runs its query half.
      EXPECT_EQ(queries_timed, kSamples) << mode << " partition " << p;
    }
  };

  uint64_t before[kPartitions];
  for (uint32_t p = 0; p < kPartitions; ++p) before[p] = ApplySamples(p);
  auto inline_cluster =
      Cluster::Create(w.graph, MakeOptions(kPartitions, kReplicas, /*k=*/1));
  ASSERT_TRUE(inline_cluster.ok());
  ASSERT_TRUE((*inline_cluster)->PublishBatch(w.events).ok());
  check(**inline_cluster, before, "inline");

  for (uint32_t p = 0; p < kPartitions; ++p) before[p] = ApplySamples(p);
  auto threaded =
      Cluster::Create(w.graph, MakeOptions(kPartitions, kReplicas, /*k=*/1));
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE((*threaded)->Start().ok());
  // 50-event batches do not line up with the period, so sampling per batch
  // instead of per event would miscount.
  constexpr size_t kBatchSize = 50;
  const std::span<const EdgeEvent> all(w.events);
  for (size_t next = 0; next < all.size(); next += kBatchSize) {
    ASSERT_TRUE((*threaded)
                    ->PublishBatch(all.subspan(
                        next, std::min(kBatchSize, all.size() - next)))
                    .ok());
  }
  (*threaded)->Drain();
  (*threaded)->Stop();
  check(**threaded, before, "threaded");
}

TEST(ClusterTest, DrainCountsWhatWasPublishedBeforeStart) {
  // Drain() waits until every replica has consumed all events published so
  // far. Events published before a Start() — applied on the spot, or by
  // the threads of an earlier Start()/Stop() run — are already consumed.
  const std::vector<EdgeEvent> events = ToEvents(figure1::DynamicEdges(0));
  // Drain() on a helper thread: true if it returns within the bound. On a
  // miss, publishing as many events again as the cluster holds lets a
  // stuck wait finish, so a hang fails the test instead of stalling it.
  const auto drains = [&events](Cluster& cluster) {
    std::future<void> drained =
        std::async(std::launch::async, [&cluster] { cluster.Drain(); });
    if (drained.wait_for(std::chrono::seconds(5)) ==
        std::future_status::ready) {
      return true;
    }
    for (uint64_t i = cluster.events_published(); i > 0; --i) {
      EXPECT_TRUE(cluster.Publish(events.front()).ok());
    }
    return false;
  };
  const std::span<const EdgeEvent> all(events);
  const std::span<const EdgeEvent> head = all.first(2);
  const std::span<const EdgeEvent> tail = all.subspan(2);

  {
    SCOPED_TRACE("publish, Start, publish, Drain");
    auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    EXPECT_TRUE((*cluster)->PublishBatch(head).ok());
    ASSERT_TRUE((*cluster)->Start().ok());
    EXPECT_TRUE((*cluster)->PublishBatch(tail).ok());
    EXPECT_TRUE(drains(**cluster));
    (*cluster)->Stop();
    EXPECT_EQ(Pairs((*cluster)->TakeRecommendations().value()),
              (std::multiset<std::pair<VertexId, VertexId>>{
                  {figure1::kA2, figure1::kC2}}));
  }
  {
    SCOPED_TRACE("Start, publish, Drain, Stop, Start, publish, Drain");
    auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    ASSERT_TRUE((*cluster)->Start().ok());
    EXPECT_TRUE((*cluster)->PublishBatch(head).ok());
    EXPECT_TRUE(drains(**cluster));
    (*cluster)->Stop();
    ASSERT_TRUE((*cluster)->Start().ok());
    EXPECT_TRUE((*cluster)->PublishBatch(tail).ok());
    EXPECT_TRUE(drains(**cluster));
    (*cluster)->Stop();
    EXPECT_EQ(Pairs((*cluster)->TakeRecommendations().value()),
              (std::multiset<std::pair<VertexId, VertexId>>{
                  {figure1::kA2, figure1::kC2}}));
  }
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

  PublishEdges(**cluster, figure1::DynamicEdges(0));
  const std::vector<Recommendation> recs =
      (*cluster)->TakeRecommendations().value();
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

  PublishEdges(**cluster, figure1::DynamicEdges(0));
  const std::vector<Recommendation> recs =
      (*cluster)->TakeRecommendations().value();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
}

TEST(ClusterTest, RecoveredReplicaReadsTheCompleteD) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(1, 2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->KillReplica(0, 1).ok());

  // Replica 1 misses the first three edges.
  const auto edges = figure1::DynamicEdges(0);
  PublishEdges(**cluster, std::span(edges).first(edges.size() - 1));
  // Recover it, then deliver the trigger. Both replicas read the process's
  // D, so whichever replica answers, the state is complete.
  ASSERT_TRUE((*cluster)->RecoverReplica(0, 1).ok());
  EXPECT_EQ((*cluster)->alive_replicas(0), 2u);
  PublishEdges(**cluster, std::span(edges).last(1));
  const std::vector<Recommendation> recs =
      (*cluster)->TakeRecommendations().value();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
}

TEST(ClusterTest, RecoveredOnlyReplicaAnswersFromTheProcessD) {
  // The partition hosting A2 has one replica, down while the first three
  // Figure 1 edges arrive. The process's D still ingests them, so once the
  // replica is back the trigger yields A2's recommendation.
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(2, 1));
  ASSERT_TRUE(cluster.ok());
  const uint32_t a2_partition =
      (*cluster)->partitioner().PartitionOf(figure1::kA2);
  ASSERT_TRUE((*cluster)->KillReplica(a2_partition, 0).ok());

  const auto edges = figure1::DynamicEdges(0);
  PublishEdges(**cluster, std::span(edges).first(edges.size() - 1));
  ASSERT_TRUE((*cluster)->RecoverReplica(a2_partition, 0).ok());
  PublishEdges(**cluster, std::span(edges).last(1));
  const std::vector<Recommendation> recs =
      (*cluster)->TakeRecommendations().value();
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

TEST(ClusterTest, DynamicMemoryDoesNotGrowWithPartitionCount) {
  // The paper flags D as a scalability bottleneck because every partition
  // holds all of it. One process keeps one D whatever it hosts.
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
    for (int i = 0; i < 500; ++i) {
      const VertexId src = static_cast<VertexId>(i % 200);
      const VertexId dst = static_cast<VertexId>((i * 7 + 1) % 200);
      if (src == dst) continue;
      ASSERT_TRUE((*cluster)->Publish({.edge = {src, dst, Seconds(i)}}).ok());
    }
    *out = (*cluster)->TotalDynamicMemory();
  }
  EXPECT_GT(memory_small, 0u);
  EXPECT_EQ(memory_large, memory_small);
}

TEST(ClusterTest, OneDWhateverTheReplicaLayout) {
  // Partitions and replicas hold only query halves: a 1x1 and a 4x3
  // deployment fed the same stream hold the same D, count the same events,
  // and report that count on every replica.
  SocialGraphOptions gopt;
  gopt.num_users = 200;
  gopt.seed = 23;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  std::vector<std::unique_ptr<Cluster>> clusters;
  for (const auto& [partitions, replicas] :
       std::vector<std::pair<uint32_t, uint32_t>>{{1, 1}, {4, 3}}) {
    auto cluster = Cluster::Create(*graph, MakeOptions(partitions, replicas));
    ASSERT_TRUE(cluster.ok());
    for (int i = 0; i < 500; ++i) {
      const VertexId src = static_cast<VertexId>(i % 200);
      const VertexId dst = static_cast<VertexId>((i * 7 + 1) % 200);
      if (src == dst) continue;
      ASSERT_TRUE((*cluster)->Publish({.edge = {src, dst, Seconds(i)}}).ok());
    }
    clusters.push_back(std::move(cluster).value());
  }
  const Cluster& one = *clusters[0];
  const Cluster& many = *clusters[1];
  EXPECT_GT(one.TotalDynamicMemory(), 0u);
  EXPECT_EQ(many.TotalDynamicMemory(), one.TotalDynamicMemory());
  const uint64_t events = one.AggregatedStats().events;
  EXPECT_GT(events, 0u);
  EXPECT_EQ(many.AggregatedStats().events, events);
  EXPECT_EQ(one.PerReplicaStats().size(), 1u);
  EXPECT_EQ(many.PerReplicaStats().size(), 12u);
  for (const Cluster* cluster : {&one, &many}) {
    for (const ReplicaStats& replica : cluster->PerReplicaStats()) {
      EXPECT_EQ(replica.detector_events, events) << replica.ToString();
    }
  }
}

TEST(ClusterTest, ShardsPartitionStaticMemory) {
  // Without replication, the shards together hold exactly the full S.
  auto one = Cluster::Create(figure1::FollowGraph(), MakeOptions(1));
  auto four = Cluster::Create(figure1::FollowGraph(), MakeOptions(4));
  ASSERT_TRUE(one.ok() && four.ok());
  size_t one_edges = 0, four_edges = 0;
  for (uint32_t p = 0; p < 1; ++p) {
    one_edges += (*one)->replica(p, 0).static_index().num_edges();
  }
  for (uint32_t p = 0; p < 4; ++p) {
    four_edges += (*four)->replica(p, 0).static_index().num_edges();
  }
  EXPECT_EQ(one_edges, four_edges);
}

TEST(ClusterTest, AggregatedStatsCoverAllPartitions) {
  auto cluster = Cluster::Create(figure1::FollowGraph(), MakeOptions(3));
  ASSERT_TRUE(cluster.ok());
  PublishEdges(**cluster, figure1::DynamicEdges(0));
  const MotifEngineStats stats = (*cluster)->AggregatedStats();
  // The process's D ingests every event once.
  EXPECT_EQ(stats.events, 4u);
  EXPECT_EQ(stats.threshold_queries, 3u);  // the trigger, in every partition
  EXPECT_EQ(stats.recommendations, 1u);
  // Sequence 0 is timed once through its index window, where it stops
  // below k, so no partition runs or times a query half for it.
  EXPECT_EQ(stats.query_micros.Count(), 0u);
  EXPECT_EQ(
      stats.stage_nanos[static_cast<size_t>(PlanStage::kIndexInsert)].Count(),
      1u);
  EXPECT_EQ(
      stats.stage_nanos[static_cast<size_t>(PlanStage::kIndexWindow)].Count(),
      1u);
}

}  // namespace
}  // namespace magicrecs
