// Fault-tolerance integration: replica failure and recovery under load,
// in both inline and threaded cluster modes, plus the delivery-dedup safety
// net for failover double-emission.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "delivery/pipeline.h"
#include "gen/activity_stream.h"
#include "gen/social_graph.h"

namespace magicrecs {
namespace {

struct Fixture {
  StaticGraph graph;
  std::vector<TimestampedEdge> events;
};

Fixture MakeFixture(uint64_t seed) {
  SocialGraphOptions gopt;
  gopt.num_users = 400;
  gopt.mean_followees = 12;
  gopt.seed = seed;
  auto graph = SocialGraphGenerator(gopt).Generate();
  EXPECT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 3'000;
  sopt.events_per_second = 100;
  sopt.burst_fraction = 0.4;
  sopt.seed = seed + 1;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  EXPECT_TRUE(stream.ok());

  Fixture f;
  f.graph = std::move(graph).value();
  f.events = std::move(stream).value().events;
  return f;
}

ClusterOptions TwoReplicaOptions() {
  ClusterOptions opt;
  opt.num_partitions = 4;
  opt.replicas_per_partition = 2;
  opt.detector.k = 2;
  opt.detector.window = Minutes(10);
  return opt;
}

std::multiset<std::pair<VertexId, VertexId>> Pairs(
    const std::vector<Recommendation>& recs) {
  std::multiset<std::pair<VertexId, VertexId>> out;
  for (const auto& r : recs) out.insert({r.user, r.item});
  return out;
}

TEST(FailureInjectionTest, MidStreamFailoverLosesNothingInlineMode) {
  const Fixture f = MakeFixture(55);

  // Healthy run for reference.
  auto healthy = Cluster::Create(f.graph, TwoReplicaOptions());
  ASSERT_TRUE(healthy.ok());
  for (const TimestampedEdge& e : f.events) {
    ASSERT_TRUE((*healthy)->Publish({.edge = e}).ok());
  }
  const std::vector<Recommendation> healthy_recs =
      (*healthy)->TakeRecommendations().value();

  // Faulty run: kill replica 0 of every partition a third of the way in,
  // recover it at two thirds.
  auto faulty = Cluster::Create(f.graph, TwoReplicaOptions());
  ASSERT_TRUE(faulty.ok());
  const size_t third = f.events.size() / 3;
  for (size_t i = 0; i < f.events.size(); ++i) {
    if (i == third) {
      for (uint32_t p = 0; p < 4; ++p) {
        ASSERT_TRUE((*faulty)->KillReplica(p, 0).ok());
      }
    }
    if (i == 2 * third) {
      for (uint32_t p = 0; p < 4; ++p) {
        ASSERT_TRUE((*faulty)->RecoverReplica(p, 0).ok());
        EXPECT_EQ((*faulty)->alive_replicas(p), 2u);
      }
    }
    ASSERT_TRUE((*faulty)->Publish({.edge = f.events[i]}).ok());
  }
  const std::vector<Recommendation> faulty_recs =
      (*faulty)->TakeRecommendations().value();

  // The survivor answered during the outage and the recovered replica was
  // re-synced, so recommendations are identical.
  EXPECT_EQ(Pairs(faulty_recs), Pairs(healthy_recs));
  EXPECT_FALSE(healthy_recs.empty());
}

TEST(FailureInjectionTest, ThreadedFailoverWhileQuiesced) {
  const Fixture f = MakeFixture(66);

  auto cluster = Cluster::Create(f.graph, TwoReplicaOptions());
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Start().ok());

  const size_t half = f.events.size() / 2;
  auto publish = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      EdgeEvent event;
      event.edge = f.events[i];
      ASSERT_TRUE((*cluster)->Publish(event).ok());
    }
  };
  publish(0, half);
  (*cluster)->Drain();
  // Quiesced failover: kill one replica of partition 0, stream on, recover.
  ASSERT_TRUE((*cluster)->KillReplica(0, 1).ok());
  publish(half, f.events.size());
  (*cluster)->Drain();
  ASSERT_TRUE((*cluster)->RecoverReplica(0, 1).ok());
  (*cluster)->Stop();

  const auto recs = (*cluster)->TakeRecommendations().value();

  // Reference: single-replica inline run.
  ClusterOptions ref_options = TwoReplicaOptions();
  ref_options.replicas_per_partition = 1;
  auto reference = Cluster::Create(f.graph, ref_options);
  ASSERT_TRUE(reference.ok());
  for (const TimestampedEdge& e : f.events) {
    ASSERT_TRUE((*reference)->Publish({.edge = e}).ok());
  }
  const std::vector<Recommendation> ref_recs =
      (*reference)->TakeRecommendations().value();
  EXPECT_EQ(Pairs(recs), Pairs(ref_recs));
}

TEST(FailureInjectionTest, ChaosKillRecoverLoopMatchesUninterruptedInline) {
  // Chaos loop: every round kills one replica of every partition, streams a
  // chunk of events through the survivors, then recovers the dead replica
  // (peer re-sync) before the next round — rotating which replica dies.
  // After N rounds the recommendations must match an uninterrupted run.
  const Fixture f = MakeFixture(88);

  auto healthy = Cluster::Create(f.graph, TwoReplicaOptions());
  ASSERT_TRUE(healthy.ok());
  for (const TimestampedEdge& e : f.events) {
    ASSERT_TRUE((*healthy)->Publish({.edge = e}).ok());
  }
  const std::vector<Recommendation> healthy_recs =
      (*healthy)->TakeRecommendations().value();

  auto chaos = Cluster::Create(f.graph, TwoReplicaOptions());
  ASSERT_TRUE(chaos.ok());
  constexpr size_t kRounds = 10;
  const size_t chunk = (f.events.size() + kRounds - 1) / kRounds;
  for (size_t round = 0; round * chunk < f.events.size(); ++round) {
    const uint32_t victim = static_cast<uint32_t>(round % 2);
    for (uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE((*chaos)->KillReplica(p, victim).ok());
    }
    const size_t begin = round * chunk;
    const size_t end = std::min(begin + chunk, f.events.size());
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE((*chaos)->Publish({.edge = f.events[i]}).ok());
    }
    for (uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE((*chaos)->RecoverReplica(p, victim).ok());
      ASSERT_EQ((*chaos)->alive_replicas(p), 2u);
    }
  }

  EXPECT_EQ(Pairs((*chaos)->TakeRecommendations().value()),
            Pairs(healthy_recs));
  EXPECT_FALSE(healthy_recs.empty());
}

TEST(FailureInjectionTest, ChaosKillRecoverLoopMatchesUninterruptedThreaded) {
  // The same chaos loop against the threaded broker, quiescing with Drain()
  // around each kill/recover as RecoverReplica requires.
  const Fixture f = MakeFixture(99);

  auto reference = Cluster::Create(f.graph, TwoReplicaOptions());
  ASSERT_TRUE(reference.ok());
  for (const TimestampedEdge& e : f.events) {
    ASSERT_TRUE((*reference)->Publish({.edge = e}).ok());
  }
  const std::vector<Recommendation> reference_recs =
      (*reference)->TakeRecommendations().value();

  auto chaos = Cluster::Create(f.graph, TwoReplicaOptions());
  ASSERT_TRUE(chaos.ok());
  ASSERT_TRUE((*chaos)->Start().ok());
  constexpr size_t kRounds = 8;
  const size_t chunk = (f.events.size() + kRounds - 1) / kRounds;
  for (size_t round = 0; round * chunk < f.events.size(); ++round) {
    const uint32_t victim = static_cast<uint32_t>(round % 2);
    (*chaos)->Drain();
    for (uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE((*chaos)->KillReplica(p, victim).ok());
    }
    const size_t begin = round * chunk;
    const size_t end = std::min(begin + chunk, f.events.size());
    for (size_t i = begin; i < end; ++i) {
      EdgeEvent event;
      event.edge = f.events[i];
      ASSERT_TRUE((*chaos)->Publish(event).ok());
    }
    (*chaos)->Drain();
    for (uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE((*chaos)->RecoverReplica(p, victim).ok());
    }
  }
  (*chaos)->Drain();
  (*chaos)->Stop();

  EXPECT_EQ(Pairs((*chaos)->TakeRecommendations().value()),
            Pairs(reference_recs));
  EXPECT_FALSE(reference_recs.empty());
}

TEST(FailureInjectionTest, DedupAbsorbsReplayAfterRecovery) {
  // If an operator replays part of the stream after a failover (at-least-
  // once delivery), the delivery pipeline's dedup keeps user-visible pushes
  // exactly-once per TTL.
  const Fixture f = MakeFixture(77);
  auto cluster = Cluster::Create(f.graph, TwoReplicaOptions());
  ASSERT_TRUE(cluster.ok());

  DeliveryPipeline::Options popt;
  popt.quiet_hours.synthetic_timezone_spread = 0;
  popt.fatigue.max_per_day = 0;
  popt.fatigue.notifications_per_hour = 1e6;
  popt.fatigue.burst = 1e6;
  DeliveryPipeline pipeline(popt);

  std::vector<Notification> delivered;
  auto run = [&](const std::vector<TimestampedEdge>& events) {
    for (const TimestampedEdge& e : events) {
      ASSERT_TRUE((*cluster)->Publish({.edge = e}).ok());
      auto recs = (*cluster)->TakeRecommendations();
      ASSERT_TRUE(recs.ok());
      for (const Recommendation& rec : *recs) {
        pipeline.Process(rec, Hours(12) + e.created_at, &delivered);
      }
    }
  };
  run(f.events);
  const size_t after_first = delivered.size();
  ASSERT_GT(after_first, 0u);

  // Replay the tail of the stream (idempotent thanks to dedup; detector
  // re-emits because its D sees duplicate edges as fresh activity).
  const std::vector<TimestampedEdge> tail(f.events.end() - 200,
                                          f.events.end());
  run(tail);
  const std::set<std::pair<VertexId, VertexId>> unique_pairs = [&] {
    std::set<std::pair<VertexId, VertexId>> s;
    for (const auto& n : delivered) s.insert({n.user, n.item});
    return s;
  }();
  EXPECT_EQ(unique_pairs.size(), delivered.size())
      << "dedup must keep delivered pushes unique per (user, item)";
}

}  // namespace
}  // namespace magicrecs
