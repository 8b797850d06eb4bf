// Acceptance for the fan-out broker: a partition group of daemon-style
// servers (each hosting ONE global partition over real loopback TCP), driven
// through FanoutCluster, must produce recommendations identical — full
// records, not just (user, item) pairs — to the inline single-process
// broker. Plus the connection-pool failure drill: a daemon killed
// mid-pipeline surfaces as a Status error, and the pool reconnects once the
// daemon is back. The single-daemon deployment — one all-hosting endpoint —
// gets its own cases: move-out gathers, Status codes across the wire,
// persistence, an inline-mode daemon, and a server stop. A publish longer
// than the exchange window, against a daemon whose in-flight cap is far
// below it, completes in order while a gather shares its connection.

#include "net/fanout_cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../persist/scoped_temp_dir.h"
#include "fanout_test_util.h"
#include "stub_transport.h"

#include "cluster/cluster.h"
#include "gen/activity_stream.h"
#include "gen/figure1.h"
#include "gen/social_graph.h"
#include "net/rpc_server.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

using fanout_test::Daemon;
using fanout_test::Group;
using fanout_test::InlineReference;
using fanout_test::MakeClusterOptions;
using fanout_test::Sorted;
using fanout_test::StartDaemon;
using fanout_test::StartGroup;
using fanout_test::ToEvents;
using net::FanoutCluster;
using net::FanoutClusterOptions;
using net::FanoutPolicy;
using net::FanoutEndpoint;
using net::RpcServer;
using net::RpcServerOptions;

/// Publishes the stream (mixing per-event and batched publishes), drains,
/// and gathers.
std::vector<Recommendation> RunThrough(ClusterTransport* transport,
                                       const std::vector<EdgeEvent>& events) {
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    EXPECT_TRUE(transport->Publish(events[i]).ok());
  }
  constexpr size_t kBatch = 1024;
  for (size_t i = half; i < events.size(); i += kBatch) {
    const size_t n = std::min(kBatch, events.size() - i);
    EXPECT_TRUE(
        transport->PublishBatch(std::span(events.data() + i, n)).ok());
  }
  EXPECT_TRUE(transport->Drain().ok());
  auto recs = transport->TakeRecommendations();
  EXPECT_TRUE(recs.ok()) << recs.status();
  return std::move(recs).value_or({});
}

/// One daemon hosting every partition behind a one-endpoint broker.
struct SingleDaemon {
  Daemon daemon;
  std::unique_ptr<FanoutCluster> broker;
};

SingleDaemon StartSingleDaemon(const StaticGraph& graph,
                               const ClusterOptions& options,
                               bool threaded = true) {
  SingleDaemon s;
  s.daemon = StartDaemon(graph, options, {}, threaded);
  FanoutClusterOptions fopt;
  fopt.endpoints.resize(1);
  fopt.endpoints[0].port = s.daemon.server->port();
  auto broker = FanoutCluster::Connect(fopt);
  EXPECT_TRUE(broker.ok()) << broker.status();
  s.broker = std::move(broker).value();
  return s;
}

TEST(FanoutClusterTest, TopologyValidation) {
  FanoutClusterOptions opt;
  EXPECT_TRUE(FanoutCluster::Connect(opt).status().IsInvalidArgument())
      << "no endpoints";

  opt.endpoints.resize(2);  // two all-hosting endpoints
  EXPECT_TRUE(FanoutCluster::Connect(opt).status().IsInvalidArgument());

  opt.endpoints[0].partition = 0;
  opt.endpoints[1].partition = 0;  // duplicate
  EXPECT_TRUE(FanoutCluster::Connect(opt).status().IsInvalidArgument());

  opt.endpoints[1].partition = 5;  // out of range for a 2-group
  EXPECT_TRUE(FanoutCluster::Connect(opt).status().IsInvalidArgument());

  opt.endpoints[1].partition = 1;
  auto ok = FanoutCluster::Connect(opt);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ((*ok)->group_size(), 2u);
  auto partitioner = (*ok)->Partitioner();
  ASSERT_TRUE(partitioner.ok());
  EXPECT_EQ(partitioner->num_partitions(), 2u);

  // Values the circuit breaker or a missing monitor would silently ignore
  // are refused on an otherwise valid topology.
  const auto refused = [&](void (*tweak)(FanoutClusterOptions*)) {
    FanoutClusterOptions bad = opt;
    tweak(&bad);
    return FanoutCluster::Connect(bad).status().IsInvalidArgument();
  };
  EXPECT_TRUE(refused([](FanoutClusterOptions* o) {
    o->reconnect_backoff_ms = 0;  // an open circuit would redial every call
  }));
  EXPECT_TRUE(refused([](FanoutClusterOptions* o) {
    o->reconnect_backoff_ms = 100;
    o->max_reconnect_backoff_ms = 50;
  }));
  EXPECT_TRUE(refused([](FanoutClusterOptions* o) {
    o->policy = FanoutPolicy::kAuto;  // nothing would ever flip it
  }));
  EXPECT_TRUE(refused([](FanoutClusterOptions* o) {
    o->event_journal_path = "broker.health.jsonl";  // nothing would write it
  }));
  opt.reconnect_backoff_ms = 1;
  opt.max_reconnect_backoff_ms = 1;
  EXPECT_TRUE(FanoutCluster::Connect(opt).ok()) << "the bounds are inclusive";
}

TEST(FanoutClusterTest, Figure1AcrossTwoByTwoPartitionGroup) {
  Group g = StartGroup(figure1::FollowGraph(), /*group_size=*/2,
                       /*replicas=*/2);
  ASSERT_TRUE(g.broker->Ping().ok());

  for (const EdgeEvent& event : ToEvents(figure1::DynamicEdges(0))) {
    ASSERT_TRUE(g.broker->Publish(event).ok());
  }
  ASSERT_TRUE(g.broker->Drain().ok());
  auto recs = g.broker->TakeRecommendations();
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].user, figure1::kA2);
  EXPECT_EQ((*recs)[0].item, figure1::kC2);
  EXPECT_EQ((*recs)[0].trigger, figure1::kB2);
  EXPECT_EQ((*recs)[0].witness_count, 2u);

  // A second take is empty on every daemon (move-out semantics hold).
  auto empty = g.broker->TakeRecommendations();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FanoutClusterTest, TenThousandEventStreamIdenticalAcrossAllTransports) {
  // The acceptance matrix: inline (reference), threaded in-process,
  // single daemon hosting all partitions, and an N-daemon partition group —
  // same stream, byte-identical recommendation records.
  SocialGraphOptions gopt;
  gopt.num_users = 500;
  gopt.mean_followees = 12;
  gopt.seed = 404;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 10'000;
  sopt.events_per_second = 200;
  sopt.burst_fraction = 0.3;
  sopt.seed = 405;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());
  const std::vector<EdgeEvent> events = ToEvents(stream->events);
  ASSERT_EQ(events.size(), 10'000u);

  constexpr uint32_t kGroup = 4;
  constexpr uint32_t kReplicas = 2;
  const ClusterOptions options = MakeClusterOptions(kGroup, kReplicas);
  const std::vector<Recommendation> reference =
      Sorted(InlineReference(*graph, options, events));
  ASSERT_FALSE(reference.empty()) << "workload produced no motifs";

  {
    auto threaded = Cluster::Create(*graph, options);
    ASSERT_TRUE(threaded.ok());
    ASSERT_TRUE((*threaded)->Start().ok());
    EXPECT_EQ(Sorted(RunThrough(threaded->get(), events)), reference)
        << "threaded in-process broker diverged";
  }
  {
    // Single daemon hosting the whole cluster behind the fan-out broker.
    Daemon daemon = StartDaemon(*graph, options);
    FanoutClusterOptions fopt;
    fopt.group_size = kGroup;
    fopt.recv_timeout_ms = 180'000;  // see StartGroup in fanout_test_util.h
    FanoutEndpoint endpoint;
    endpoint.port = daemon.server->port();
    fopt.endpoints.push_back(endpoint);
    auto broker = FanoutCluster::Connect(fopt);
    ASSERT_TRUE(broker.ok()) << broker.status();
    EXPECT_EQ(Sorted(RunThrough(broker->get(), events)), reference)
        << "single-daemon fan-out diverged";
  }
  {
    Group g = StartGroup(*graph, kGroup, kReplicas);
    EXPECT_EQ(Sorted(RunThrough(g.broker.get(), events)), reference)
        << "partition-group fan-out diverged";

    // Counts stay attributable across daemons: each hosts kReplicas
    // replicas of its own partition, every partition is covered, and
    // together they emitted the reference.
    uint64_t recommendations = 0;
    for (uint32_t p = 0; p < kGroup; ++p) {
      Cluster& hosted = *g.daemons[p].hosted;
      ASSERT_TRUE(hosted.Drain().ok());
      EXPECT_EQ(hosted.placement().group_size, kGroup);
      EXPECT_EQ(hosted.replicas_per_partition(), kReplicas);
      EXPECT_EQ(hosted.events_published(), events.size());
      recommendations += hosted.AggregatedStats().recommendations;
      const std::vector<ReplicaStats> replicas = hosted.PerReplicaStats();
      ASSERT_EQ(replicas.size(), kReplicas);
      for (uint32_t r = 0; r < kReplicas; ++r) {
        EXPECT_EQ(replicas[r].partition, p);
        EXPECT_EQ(replicas[r].replica, r);
        EXPECT_TRUE(replicas[r].alive);
        EXPECT_EQ(replicas[r].detector_events, events.size())
            << "every partition must ingest the entire stream";
      }
    }
    EXPECT_EQ(recommendations, reference.size());
  }
}

TEST(FanoutClusterTest, ReplicaOpsRouteToTheOwningDaemon) {
  Group g = StartGroup(figure1::FollowGraph(), /*group_size=*/2,
                       /*replicas=*/2);

  ASSERT_TRUE(g.broker->KillReplica(1, 0).ok());
  size_t replicas = 0;
  for (const Daemon& daemon : g.daemons) {
    for (const ReplicaStats& entry : daemon.hosted->PerReplicaStats()) {
      EXPECT_EQ(entry.alive, !(entry.partition == 1 && entry.replica == 0))
          << entry.ToString();
      replicas++;
    }
  }
  EXPECT_EQ(replicas, 4u);
  ASSERT_TRUE(g.broker->RecoverReplica(1, 0).ok());

  // Misrouted ops fail with the broker's routing error or the daemon's
  // validation, never touch another partition's daemon.
  EXPECT_TRUE(g.broker->KillReplica(7, 0).IsInvalidArgument());
  EXPECT_TRUE(g.broker->RecoverReplica(0, 0).IsAlreadyExists());
  EXPECT_TRUE(g.broker->KillReplica(0, 9).IsInvalidArgument());
}

TEST(FanoutClusterTest, DaemonKilledMidPipelineSurfacesErrorThenReconnects) {
  SocialGraphOptions gopt;
  gopt.num_users = 200;
  gopt.mean_followees = 8;
  gopt.seed = 505;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 4'000;
  sopt.events_per_second = 300;
  sopt.seed = 506;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());
  const std::vector<EdgeEvent> events = ToEvents(stream->events);

  Group g = StartGroup(*graph, /*group_size=*/2, /*replicas=*/1);
  ASSERT_TRUE(g.broker->Ping().ok());
  ASSERT_TRUE(
      g.broker->PublishBatch(std::span(events.data(), 512)).ok());

  // Kill daemon 1 and keep publishing: the pipelined batch hits a severed
  // socket — a Status error naming the daemon, not a crash or a hang.
  const uint16_t dead_port = g.daemons[1].server->port();
  g.daemons[1].server->Stop();
  Status failed;
  for (int i = 0; i < 10 && failed.ok(); ++i) {
    failed = g.broker->PublishBatch(std::span(events.data(), events.size()));
  }
  ASSERT_FALSE(failed.ok()) << "publishes kept succeeding with a dead daemon";
  EXPECT_TRUE(failed.IsUnavailable()) << failed;
  EXPECT_NE(failed.ToString().find("partition 1"), std::string::npos)
      << "error does not identify the failed daemon: " << failed;

  // The surviving daemon still answers on its own connections.
  EXPECT_TRUE(g.broker->KillReplica(0, 0).ok());
  EXPECT_TRUE(g.broker->RecoverReplica(0, 0).ok());

  // Bring daemon 1 back on the SAME port. Calls inside the backoff window
  // fail fast (circuit breaker), so retry with a small sleep until the
  // window (capped at 2s) expires and the pool redials — no new
  // FanoutCluster needed.
  {
    RpcServerOptions ropt;
    ropt.port = dead_port;
    auto revived = RpcServer::Start(g.daemons[1].hosted.get(), ropt);
    ASSERT_TRUE(revived.ok()) << revived.status();
    g.daemons[1].server = std::move(revived).value();
  }
  Status recovered;
  for (int i = 0; i < 100; ++i) {
    recovered = g.broker->Ping();
    if (recovered.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(recovered.ok()) << "pool never reconnected: " << recovered;
  EXPECT_TRUE(
      g.broker->PublishBatch(std::span(events.data(), 512)).ok());
  ASSERT_TRUE(g.broker->Drain().ok());
}

TEST(FanoutClusterTest, PingRejectsMisconfiguredDaemons) {
  // A daemon that hosts every partition (its --partition-group flags are
  // missing) wired up as "partition 1" would silently duplicate every
  // recommendation; Ping, which dials every daemon, must refuse the
  // topology loudly.
  Daemon group_member;
  {
    ClusterOptions options = MakeClusterOptions(1, 1);
    options.group_size = 2;
    options.group_partition = 0;
    group_member = StartDaemon(figure1::FollowGraph(), options);
  }
  Daemon hosts_everything =
      StartDaemon(figure1::FollowGraph(), MakeClusterOptions(2, 1));

  FanoutClusterOptions fopt;
  fopt.group_size = 2;
  FanoutEndpoint e0;
  e0.port = group_member.server->port();
  e0.partition = 0;
  FanoutEndpoint e1;
  e1.port = hosts_everything.server->port();
  e1.partition = 1;
  fopt.endpoints = {e0, e1};
  auto broker = FanoutCluster::Connect(fopt);
  ASSERT_TRUE(broker.ok()) << broker.status();
  const Status ping = (*broker)->Ping();
  ASSERT_TRUE(ping.IsFailedPrecondition()) << ping;
  EXPECT_NE(ping.ToString().find("partition"), std::string::npos) << ping;

  // Salt disagreement is equally silent placement corruption: caught too
  // (the correctly configured group member fails the salt cross-check).
  FanoutClusterOptions salted = fopt;
  salted.partitioner_salt = 42;  // daemons were built with salt 0
  auto mismatched = FanoutCluster::Connect(salted);
  ASSERT_TRUE(mismatched.ok());
  const Status salt_ping = (*mismatched)->Ping();
  ASSERT_TRUE(salt_ping.IsFailedPrecondition()) << salt_ping;
  EXPECT_NE(salt_ping.ToString().find("salt"), std::string::npos)
      << salt_ping;

  // The converse: a one-endpoint broker on a group member would gather one
  // partition's share as if it were the whole cluster. An all-hosting
  // endpoint needs a daemon that hosts every partition.
  FanoutClusterOptions lone;
  lone.endpoints.resize(1);
  lone.endpoints[0].port = group_member.server->port();
  auto one = FanoutCluster::Connect(lone);
  ASSERT_TRUE(one.ok()) << one.status();
  const Status lone_ping = (*one)->Ping();
  ASSERT_TRUE(lone_ping.IsFailedPrecondition()) << lone_ping;
  EXPECT_NE(lone_ping.ToString().find("all-hosting"), std::string::npos)
      << lone_ping;
}

TEST(FanoutClusterTest, RedialRejectsARestartedDaemonPlacedElsewhere) {
  // The placement check runs on every dial, not only in Ping: a group
  // member restarted on its port with another partition id, or another
  // salt, is refused at the broker's redial, so under strict it applies
  // nothing and the publish fails naming it.
  const std::vector<EdgeEvent> events = ToEvents(figure1::DynamicEdges(0));
  for (const bool other_salt : {false, true}) {
    SCOPED_TRACE(other_salt ? "another salt" : "another partition id");
    Group g = StartGroup(figure1::FollowGraph(), /*group_size=*/2,
                         /*replicas=*/1);
    ASSERT_TRUE(g.broker->Publish(events[0]).ok());  // dials both

    const uint16_t port = g.daemons[1].server->port();
    g.daemons[1].server->Stop();
    ClusterOptions options = MakeClusterOptions(1);
    options.group_size = 2;
    options.group_partition = other_salt ? 1 : 0;
    if (other_salt) options.partitioner_salt = 42;
    RpcServerOptions ropt;
    ropt.port = port;
    g.daemons[1] = StartDaemon(figure1::FollowGraph(), options, ropt);
    // Let the broker's reader see the old connection close, so the
    // publish below redials instead of failing on the dead socket.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    const Status published =
        g.broker->PublishBatch(std::span(events).subspan(1));
    ASSERT_TRUE(published.IsFailedPrecondition()) << published;
    EXPECT_NE(published.ToString().find(StrFormat(
                  "daemon 127.0.0.1:%u (partition 1)",
                  static_cast<unsigned>(port))),
              std::string::npos)
        << published;
    EXPECT_NE(published.ToString().find(other_salt ? "salt 42"
                                                   : "hosts partition 0"),
              std::string::npos)
        << published;
    ASSERT_TRUE(g.daemons[1].hosted->Drain().ok());
    EXPECT_EQ(g.daemons[1].hosted->events_published(), 0u)
        << "the miswired daemon applied a frame";
  }
}

TEST(FanoutClusterTest, WarmPingCostsEachDaemonOneRequest) {
  // Ping is one kPing sweep: topology was checked when the broker dialed,
  // so a warm broker spends exactly one request per daemon on it.
  Group g = StartGroup(figure1::FollowGraph(), /*group_size=*/2,
                       /*replicas=*/1);
  ASSERT_TRUE(g.broker->Ping().ok());  // dials; the hellos are not counted
  std::vector<uint64_t> before;
  for (const Daemon& daemon : g.daemons) {
    before.push_back(daemon.server->stats().requests_served);
  }
  ASSERT_TRUE(g.broker->Ping().ok());
  for (size_t i = 0; i < g.daemons.size(); ++i) {
    EXPECT_EQ(g.daemons[i].server->stats().requests_served - before[i], 1u)
        << "daemon " << i;
  }
}

TEST(FanoutClusterTest, PartialGatherIsRescuedNotDropped) {
  // When one daemon dies mid-gather, the gather fails and acknowledges
  // nothing, so what the healthy daemons already sent must reappear on the
  // next successful take instead of vanishing.
  Group g = StartGroup(figure1::FollowGraph(), /*group_size=*/2,
                       /*replicas=*/1);
  for (const EdgeEvent& event : ToEvents(figure1::DynamicEdges(0))) {
    ASSERT_TRUE(g.broker->Publish(event).ok());
  }
  ASSERT_TRUE(g.broker->Drain().ok());

  // Kill the daemon that does NOT own A2, so the recommendation sits on
  // the surviving daemon when the gather partially fails.
  auto partitioner = g.broker->Partitioner();
  ASSERT_TRUE(partitioner.ok());
  const uint32_t owner = partitioner->PartitionOf(figure1::kA2);
  const uint32_t victim = 1 - owner;
  const uint16_t victim_port = g.daemons[victim].server->port();
  g.daemons[victim].server->Stop();

  Status failed;
  for (int i = 0; i < 10 && failed.ok(); ++i) {
    failed = g.broker->TakeRecommendations().status();
  }
  ASSERT_FALSE(failed.ok()) << "gather kept succeeding with a dead daemon";

  // Revive the victim and retake: the unmerged recommendation must surface.
  {
    RpcServerOptions ropt;
    ropt.port = victim_port;
    auto revived = RpcServer::Start(g.daemons[victim].hosted.get(), ropt);
    ASSERT_TRUE(revived.ok()) << revived.status();
    g.daemons[victim].server = std::move(revived).value();
  }
  std::vector<Recommendation> recs;
  for (int i = 0; i < 100; ++i) {
    auto taken = g.broker->TakeRecommendations();
    if (taken.ok()) {
      recs = std::move(taken).value();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(recs.size(), 1u) << "the partially gathered rec was dropped";
  EXPECT_EQ(recs[0].user, figure1::kA2);
  EXPECT_EQ(recs[0].item, figure1::kC2);
}

TEST(FanoutClusterTest, ConcurrentCallersShareThePool) {
  // Two threads drive the broker at once: publishes on one, control-plane
  // probes on the other. The pool opens a second connection per daemon
  // instead of interleaving frames on one socket; nothing deadlocks and
  // every call still succeeds.
  SocialGraphOptions gopt;
  gopt.num_users = 200;
  gopt.mean_followees = 8;
  gopt.seed = 606;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = 2'000;
  sopt.events_per_second = 300;
  sopt.seed = 607;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());
  const std::vector<EdgeEvent> events = ToEvents(stream->events);

  Group g = StartGroup(*graph, /*group_size=*/2, /*replicas=*/1);
  std::atomic<bool> publisher_ok{true};
  std::thread publisher([&] {
    constexpr size_t kBatch = 256;
    for (size_t i = 0; i < events.size(); i += kBatch) {
      const size_t n = std::min(kBatch, events.size() - i);
      if (!g.broker->PublishBatch(std::span(events.data() + i, n)).ok()) {
        publisher_ok = false;
        return;
      }
    }
  });
  for (int probes = 0; probes < 50; ++probes) {
    EXPECT_TRUE(g.broker->Ping().ok());
    auto text = g.broker->GetStatsText();
    EXPECT_TRUE(text.ok()) << text.status();
  }
  publisher.join();
  EXPECT_TRUE(publisher_ok);
  ASSERT_TRUE(g.broker->Drain().ok());
  auto recs = g.broker->TakeRecommendations();
  ASSERT_TRUE(recs.ok());
}

TEST(FanoutClusterTest, ConcurrentGathersDeliverEachRecommendationOnce) {
  // Two threads gather while a third publishes. Each daemon holds its last
  // reply until a take acks it, so gathers run one at a time; the union of
  // everything gathered must be the inline reference, no recommendation
  // twice and none missing.
  SocialGraphOptions gopt;
  gopt.num_users = 200;
  gopt.mean_followees = 8;
  gopt.seed = 616;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());
  ActivityStreamOptions sopt;
  sopt.num_events = 3'000;
  sopt.events_per_second = 300;
  sopt.seed = 617;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());
  const std::vector<EdgeEvent> events = ToEvents(stream->events);
  const std::vector<Recommendation> reference =
      Sorted(InlineReference(*graph, MakeClusterOptions(2), events));
  ASSERT_FALSE(reference.empty());

  Group g = StartGroup(*graph, /*group_size=*/2, /*replicas=*/1);
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    constexpr size_t kBatch = 128;
    for (size_t i = 0; i < events.size(); i += kBatch) {
      const size_t n = std::min(kBatch, events.size() - i);
      EXPECT_TRUE(g.broker->PublishBatch(std::span(events.data() + i, n)).ok());
    }
    EXPECT_TRUE(g.broker->Drain().ok());
    published = true;
  });
  std::vector<Recommendation> gathered[2];
  auto gather = [&](std::vector<Recommendation>* into) {
    while (!published) {
      auto recs = g.broker->TakeRecommendations();
      ASSERT_TRUE(recs.ok()) << recs.status();
      into->insert(into->end(), recs->begin(), recs->end());
    }
  };
  std::thread first(gather, &gathered[0]);
  std::thread second(gather, &gathered[1]);
  publisher.join();
  first.join();
  second.join();
  auto last = g.broker->TakeRecommendations();
  ASSERT_TRUE(last.ok()) << last.status();

  std::vector<Recommendation> all = std::move(last).value();
  for (const auto& recs : gathered) {
    all.insert(all.end(), recs.begin(), recs.end());
  }
  EXPECT_EQ(Sorted(all), reference);
}

TEST(FanoutClusterTest, BrokersSharingADaemonTakeDisjointShares) {
  // Two brokers take in turn from the same daemons. Each daemon holds each
  // broker's last reply apart, so one broker's ack never frees, and its
  // take never carries, the reply held for the other: the union of both
  // brokers' takes is the inline reference, no recommendation twice.
  SocialGraphOptions gopt;
  gopt.num_users = 200;
  gopt.mean_followees = 8;
  gopt.seed = 616;
  auto graph = SocialGraphGenerator(gopt).Generate();
  ASSERT_TRUE(graph.ok());
  ActivityStreamOptions sopt;
  sopt.num_events = 3'000;
  sopt.events_per_second = 300;
  sopt.seed = 617;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  ASSERT_TRUE(stream.ok());
  const std::vector<EdgeEvent> events = ToEvents(stream->events);
  const std::vector<Recommendation> reference =
      Sorted(InlineReference(*graph, MakeClusterOptions(2), events));
  ASSERT_FALSE(reference.empty());

  Group g = StartGroup(*graph, /*group_size=*/2, /*replicas=*/1);
  FanoutClusterOptions other_opt;
  other_opt.group_size = 2;
  for (uint32_t p = 0; p < 2; ++p) {
    FanoutEndpoint endpoint;
    endpoint.port = g.daemons[p].server->port();
    endpoint.partition = p;
    other_opt.endpoints.push_back(endpoint);
  }
  auto other = FanoutCluster::Connect(other_opt);
  ASSERT_TRUE(other.ok()) << other.status();
  FanoutCluster* takers[2] = {g.broker.get(), other->get()};

  std::vector<Recommendation> all;
  size_t taken[2] = {0, 0};
  auto take = [&](int i) {
    auto recs = takers[i]->TakeRecommendations();
    ASSERT_TRUE(recs.ok()) << recs.status();
    taken[i] += recs->size();
    all.insert(all.end(), recs->begin(), recs->end());
  };
  constexpr size_t kBatch = 64;
  for (size_t i = 0; i < events.size(); i += kBatch) {
    const size_t n = std::min(kBatch, events.size() - i);
    ASSERT_TRUE(g.broker->PublishBatch(std::span(events.data() + i, n)).ok());
    ASSERT_TRUE(g.broker->Drain().ok());  // each take finds fresh ones
    take(static_cast<int>(i / kBatch % 2));
  }
  take(0);
  take(1);
  EXPECT_EQ(Sorted(all), reference);
  EXPECT_GT(taken[0], 0u);
  EXPECT_GT(taken[1], 0u);
}

TEST(FanoutClusterTest, WindowRefillsPastASmallCapWithAGatherAlongside) {
  // 40 frames against a window of 32 and a daemon cap of 4: the lane's
  // window fills to the cap and refills after each reap. The first run is
  // held in the transport, so the cap is full when the gather starts on
  // the same connection; its Start must wait there without stranding
  // queued frames, and both calls must finish once the hold is released.
  constexpr size_t kFrames = net::kPublishWindowFrames + 8;
  std::vector<EdgeEvent> events(kFrames * net::kPublishChunkEvents);
  for (size_t i = 0; i < events.size(); ++i) {
    const VertexId id = static_cast<VertexId>(i + 1);
    events[i].edge = TimestampedEdge{id, 7, static_cast<Timestamp>(id)};
  }
  net_test::StubTransport stub;
  RpcServerOptions ropt;
  ropt.max_inflight_per_conn = 4;
  auto server = RpcServer::Start(&stub, ropt);
  ASSERT_TRUE(server.ok()) << server.status();
  FanoutClusterOptions fopt;
  fopt.endpoints.resize(1);
  fopt.endpoints[0].port = (*server)->port();
  auto broker = FanoutCluster::Connect(fopt);
  ASSERT_TRUE(broker.ok()) << broker.status();

  stub.GatePublishes();
  Status published;
  std::thread publisher([&] { published = (*broker)->PublishBatch(events); });
  for (int i = 0; i < 500 && !stub.publish_blocked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(stub.publish_blocked());
  Status gathered;
  std::thread gatherer(
      [&] { gathered = (*broker)->TakeRecommendations().status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stub.Release();
  publisher.join();
  gatherer.join();
  EXPECT_TRUE(published.ok()) << published;
  EXPECT_TRUE(gathered.ok()) << gathered;

  const std::vector<EdgeEvent> seen = stub.published();
  ASSERT_EQ(seen.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(seen[i].edge, events[i].edge) << "event " << i;
  }
  EXPECT_EQ((*server)->stats().connections_accepted, 1u)
      << "every call shares the one connection";
}

TEST(FanoutClusterTest, CallsAfterCloseFailCleanly) {
  Group g = StartGroup(figure1::FollowGraph(), /*group_size=*/2,
                       /*replicas=*/1);
  ASSERT_TRUE(g.broker->Close().ok());
  EdgeEvent event;
  event.edge = {figure1::kB1, figure1::kC1, 1};
  EXPECT_TRUE(g.broker->Publish(event).IsFailedPrecondition());
  EXPECT_TRUE(g.broker->Drain().IsFailedPrecondition());
  EXPECT_TRUE(
      g.broker->TakeRecommendations().status().IsFailedPrecondition());
  EXPECT_TRUE(g.broker->Close().ok()) << "Close is idempotent";
}

TEST(FanoutClusterTest, SingleDaemonSecondTakeIsEmpty) {
  SingleDaemon s = StartSingleDaemon(figure1::FollowGraph(),
                                     MakeClusterOptions(2));
  ASSERT_TRUE(s.broker->Ping().ok());
  for (const EdgeEvent& event : ToEvents(figure1::DynamicEdges(0))) {
    ASSERT_TRUE(s.broker->Publish(event).ok());
  }
  ASSERT_TRUE(s.broker->Drain().ok());
  auto recs = s.broker->TakeRecommendations();
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].user, figure1::kA2);
  EXPECT_EQ((*recs)[0].item, figure1::kC2);

  // The second take acknowledges the first, which is not sent again.
  auto empty = s.broker->TakeRecommendations();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FanoutClusterTest, SingleDaemonReplicaOpStatusCodesSurviveTheWire) {
  SingleDaemon s = StartSingleDaemon(figure1::FollowGraph(),
                                     MakeClusterOptions(2, 2));
  ASSERT_TRUE(s.broker->KillReplica(0, 1).ok());
  ASSERT_TRUE(s.broker->RecoverReplica(0, 1).ok());

  // The daemon's Status codes survive the round trip.
  EXPECT_TRUE(s.broker->KillReplica(99, 0).IsInvalidArgument());
  EXPECT_TRUE(s.broker->RecoverReplica(0, 0).IsAlreadyExists());
  EXPECT_TRUE(s.broker->Checkpoint(0).IsFailedPrecondition())
      << "no persistence configured on the hosted cluster";
}

TEST(FanoutClusterTest, SingleDaemonCheckpointThenRecoverWithPersistence) {
  ScopedTempDir dir;
  ClusterOptions options = MakeClusterOptions(2, 2);
  options.persist.dir = dir.path();
  SingleDaemon s = StartSingleDaemon(figure1::FollowGraph(), options);

  // Stream everything but the trigger, checkpoint, kill+recover a replica
  // (rebuilt from snapshot + WAL on the daemon), then the trigger.
  const auto edges = figure1::DynamicEdges(0);
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    EdgeEvent event;
    event.edge = edges[i];
    ASSERT_TRUE(s.broker->Publish(event).ok());
  }
  ASSERT_TRUE(s.broker->Checkpoint(Seconds(100)).ok());
  ASSERT_TRUE(s.broker->KillReplica(0, 0).ok());
  ASSERT_TRUE(s.broker->RecoverReplica(0, 0).ok());
  EdgeEvent trigger;
  trigger.edge = edges.back();
  ASSERT_TRUE(s.broker->Publish(trigger).ok());
  ASSERT_TRUE(s.broker->Drain().ok());

  auto recs = s.broker->TakeRecommendations();
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].user, figure1::kA2);
  EXPECT_EQ((*recs)[0].item, figure1::kC2);
}

TEST(FanoutClusterTest, SingleDaemonOverAnInlineModeTransport) {
  // The daemon can host an inline (single-threaded) cluster too.
  SingleDaemon s = StartSingleDaemon(figure1::FollowGraph(),
                                     MakeClusterOptions(2),
                                     /*threaded=*/false);
  for (const EdgeEvent& event : ToEvents(figure1::DynamicEdges(0))) {
    ASSERT_TRUE(s.broker->Publish(event).ok());
  }
  ASSERT_TRUE(s.broker->Drain().ok());  // no-op, but must succeed
  auto recs = s.broker->TakeRecommendations();
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].user, figure1::kA2);
}

TEST(FanoutClusterTest, ServerStopGivesUnavailableNotAHang) {
  SingleDaemon s = StartSingleDaemon(figure1::FollowGraph(),
                                     MakeClusterOptions(2));
  ASSERT_TRUE(s.broker->Ping().ok());
  s.daemon.server->Stop();
  EdgeEvent event;
  event.edge = {figure1::kB1, figure1::kC1, 1};
  const Status published = s.broker->Publish(event);
  EXPECT_TRUE(published.IsUnavailable()) << published;
}

}  // namespace
}  // namespace magicrecs
