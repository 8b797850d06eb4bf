// Degraded-mode acceptance for the fan-out broker (FanoutPolicy): quorum
// gathers keep serving the surviving partitions when a daemon dies and the
// GatherReport names what is missing; a publish to a stalled daemon times
// out into the replay buffer and the server-side batch-sequence dedup
// suppresses the replayed copy; publishes to an unreachable daemon park in
// a bounded replay buffer and flow again — restoring byte-identical
// strict-mode results — once the daemon returns, replayed as one pipelined
// exchange; a publish that buffer cannot hold is refused before any daemon
// gets it, and a lane that dies mid-publish past the bound drops its
// unsent events explicitly. Strict mode on a healthy group must stay
// byte-identical to the inline reference. A seeded exchange fuzz checks every call's outcome
// against a model of the policy; rerun a failure with
//   MAGICRECS_FUZZ_SEED=<seed> ./net_fanout_degraded_test

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../persist/scoped_temp_dir.h"
#include "fanout_test_util.h"
#include "raw_session.h"
#include "stub_transport.h"

#include "cluster/cluster.h"
#include "gen/activity_stream.h"
#include "gen/figure1.h"
#include "gen/social_graph.h"
#include "net/fanout_cluster.h"
#include "net/frame_io.h"
#include "net/rpc_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/histogram.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

using fanout_test::BrokerSeries;
using fanout_test::Daemon;
using fanout_test::ForwardingTransport;
using fanout_test::Group;
using fanout_test::InlineReference;
using fanout_test::MakeClusterOptions;
using fanout_test::Sorted;
using fanout_test::StartDaemon;
using fanout_test::StartGroup;
using fanout_test::ToEvents;
using net::FanoutCluster;
using net::FanoutClusterOptions;
using net::FanoutEndpoint;
using net::FanoutPolicy;
using net::GatherReport;
using net::RpcServer;
using net::RpcServerOptions;

/// A ClusterTransport decorator that stalls the first `delays` PublishBatch
/// calls by `delay` — the "slow daemon" whose unacked frame the broker
/// times out on and later sends again as a replayed copy. Everything else
/// forwards unchanged.
class DelayingTransport : public ForwardingTransport {
 public:
  DelayingTransport(ClusterTransport* wrapped,
                    std::chrono::milliseconds delay, int delays)
      : ForwardingTransport(wrapped), delay_(delay), delays_left_(delays) {}

  Status PublishBatch(std::span<const EdgeEvent> events) override {
    if (delays_left_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      std::this_thread::sleep_for(delay_);
    }
    return wrapped_->PublishBatch(events);
  }

 private:
  std::chrono::milliseconds delay_;
  std::atomic<int> delays_left_;
};

/// A ClusterTransport decorator whose FIRST take returns only after
/// `delay`: its reply outlasts the broker's recv timeout, so the broker
/// drops the lane while the daemon's reply is still on its way.
class SlowFirstTakeTransport : public ForwardingTransport {
 public:
  SlowFirstTakeTransport(ClusterTransport* wrapped,
                         std::chrono::milliseconds delay)
      : ForwardingTransport(wrapped), delay_(delay) {}

  Result<std::vector<Recommendation>> TakeRecommendations() override {
    Result<std::vector<Recommendation>> recs =
        wrapped_->TakeRecommendations();
    if (!slowed_.exchange(true)) std::this_thread::sleep_for(delay_);
    return recs;
  }

 private:
  std::chrono::milliseconds delay_;
  std::atomic<bool> slowed_{false};
};

/// A ClusterTransport decorator whose FIRST PublishBatch blocks until
/// Release() and then fails without applying anything — an apply caught in
/// flight whose outcome turns out to be failure, exactly the window where
/// a racing replayed copy must not be blind-acked. Later calls forward.
class GatedFailingTransport : public ForwardingTransport {
 public:
  using ForwardingTransport::ForwardingTransport;

  /// True once the first PublishBatch is inside the gate.
  bool first_apply_started() const {
    return started_.load(std::memory_order_acquire);
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  Status PublishBatch(std::span<const EdgeEvent> events) override {
    if (!first_taken_.exchange(true)) {
      started_.store(true, std::memory_order_release);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return released_; });
      return Status::Internal("injected apply failure");
    }
    return wrapped_->PublishBatch(events);
  }

 private:
  std::atomic<bool> first_taken_{false};
  std::atomic<bool> started_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

/// A ClusterTransport decorator whose PublishBatch rejects every batch
/// without applying it: a revived daemon that refuses the frames parked
/// for it. With `reject_stats_text` its stats-text scrape fails too.
/// Everything else forwards unchanged.
class RejectingTransport : public ForwardingTransport {
 public:
  explicit RejectingTransport(ClusterTransport* wrapped,
                              bool reject_stats_text = false)
      : ForwardingTransport(wrapped), reject_stats_text_(reject_stats_text) {}

  Status PublishBatch(std::span<const EdgeEvent>) override {
    return Status::InvalidArgument("injected publish rejection");
  }
  Result<std::string> GetStatsText() override {
    if (reject_stats_text_) {
      return Status::Unavailable("injected stats-text failure");
    }
    return wrapped_->GetStatsText();
  }

 private:
  bool reject_stats_text_;
};

/// How a MidStreamDaemon goes wrong.
enum class Fault {
  // How its first gather goes wrong after the first chunk:
  kHangUp,      ///< it hangs up
  kFallSilent,  ///< it falls silent until the broker hangs up
  kMixTakeIds,  ///< a last, empty chunk names a take it never held
  // How its first publish goes wrong:
  kHangUpAfterFirstAck,  ///< it acks the first frame, then hangs up
};

/// A scripted daemon whose first gather dies mid-stream, or whose first
/// publish dies after one ack. On every session it answers the hello as
/// partition 2 of a 3-partition group (its place in StartScriptedGroup).
/// It answers its FIRST gather with ONE chunk holding `rec` and has_more
/// set — and then goes wrong as `fault` says. Every later gather gets a
/// whole reply, which carries `rec` again until a take acks the id of the
/// reply that last carried it. It acks every publish frame without
/// applying it; under kHangUpAfterFirstAck it hangs up after the first.
/// Any other request gets a kError.
class MidStreamDaemon {
 public:
  MidStreamDaemon(const Recommendation& rec, Fault fault)
      : rec_(rec), fault_(fault) {
    auto listener = net::TcpListener::Listen("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { Serve(); });
  }

  /// Destroy after the broker: a session still open would pin Serve.
  ~MidStreamDaemon() {
    stopping_.store(true);
    // Unblocks a pending Accept; harmless if Serve already returned.
    (void)net::TcpSocket::Connect("127.0.0.1", port());
    thread_.join();
  }

  uint16_t port() const { return listener_.port(); }

  /// Blocks until `n` gathers have reached this daemon.
  void AwaitGathers(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return gathers_ >= n; });
  }

 private:
  void Serve() {
    while (true) {
      Result<net::TcpSocket> peer = listener_.Accept();
      if (!peer.ok() || stopping_.load()) return;
      Session(&*peer);
    }
  }

  void Session(net::TcpSocket* peer) {
    net::FrameAssembler assembler;
    net::Frame frame;
    if (!net::ReceiveFrame(peer, &assembler, &frame).ok()) return;  // hello
    std::string out;
    Placement placement;
    placement.group_size = 3;
    placement.partition = 2;
    net::AppendHelloReply(net::kFeatureMux | net::kFeatureTrace,
                          /*max_inflight=*/64, placement, &out);
    if (!peer->WriteAll(out.data(), out.size()).ok()) return;
    while (net::ReceiveFrame(peer, &assembler, &frame).ok()) {
      uint64_t request_id = 0;
      net::Frame request;
      if (!net::DecodeMuxRequest(frame.payload, &request_id, &request).ok()) {
        return;
      }
      std::string reply;
      const bool gather =
          request.tag == net::MessageTag::kTakeRecommendations;
      const bool publish = request.tag == net::MessageTag::kPublishBatch;
      const bool cut = gather && take_ == 0;
      if (publish) {
        net::AppendAck(&reply);
      } else if (gather) {
        uint64_t broker = 0;
        std::vector<net::TakeAck> acks;
        EXPECT_TRUE(
            net::DecodeTakeRecommendations(request.payload, &broker, &acks)
                .ok());
        for (const net::TakeAck& ack : acks) {
          if (ack.partition == 2 && take_ != 0 && ack.take == take_) {
            acked_ = true;
          }
        }
        const size_t share = acked_ ? 0 : 1;
        net::AppendRecommendationsReply(std::span(&rec_, share),
                                        /*has_more=*/cut, &reply, ++take_);
      } else {
        net::AppendError(Status::Unimplemented("scripted daemon"), &reply);
      }
      out.clear();
      net::AppendMuxResponse(request_id, /*last=*/!cut, reply, &out);
      if (cut && fault_ == Fault::kMixTakeIds) {
        // The stream ends, but its last chunk names another take.
        reply.clear();
        net::AppendRecommendationsReply({}, /*has_more=*/false, &reply,
                                        take_ + 1000);
        net::AppendMuxResponse(request_id, /*last=*/true, reply, &out);
      }
      if (!peer->WriteAll(out.data(), out.size()).ok()) return;
      if (publish && fault_ == Fault::kHangUpAfterFirstAck && !acked_publish_) {
        acked_publish_ = true;
        // A half-close, then read out what the broker already sent: a
        // close over unread frames would reset the connection and could
        // lose the ack.
        ::shutdown(peer->fd(), SHUT_WR);
        while (net::ReceiveFrame(peer, &assembler, &frame).ok()) {
        }
        return;
      }
      if (!gather) continue;
      {
        std::lock_guard<std::mutex> lock(mu_);
        gathers_++;
      }
      cv_.notify_all();
      if (cut && fault_ == Fault::kHangUp) return;
    }
  }

  const Recommendation rec_;
  const Fault fault_;
  uint64_t take_ = 0;   ///< id of the last reply sent (Serve thread only)
  bool acked_ = false;  ///< a take acked a reply carrying rec_
  bool acked_publish_ = false;  ///< a publish frame was acked
  net::TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  int gathers_ = 0;
  std::thread thread_;
};

/// A 3-endpoint quorum broker: real daemons for partitions 0 and 1, and
/// `scripted` wired as partition 2.
struct ScriptedGroup {
  std::vector<Daemon> daemons;
  std::unique_ptr<FanoutCluster> broker;
};

ScriptedGroup StartScriptedGroup(const MidStreamDaemon& scripted,
                                 FanoutClusterOptions fopt) {
  ScriptedGroup g;
  fopt.policy = FanoutPolicy::kQuorum;
  fopt.group_size = 3;
  for (uint32_t p = 0; p < 3; ++p) {
    FanoutEndpoint endpoint;
    endpoint.partition = p;
    if (p < 2) {
      ClusterOptions options = MakeClusterOptions(1);
      options.group_size = 3;
      options.group_partition = p;
      g.daemons.push_back(StartDaemon(figure1::FollowGraph(), options));
      endpoint.port = g.daemons.back().server->port();
    } else {
      endpoint.port = scripted.port();
    }
    fopt.endpoints.push_back(endpoint);
  }
  auto broker = FanoutCluster::Connect(fopt);
  EXPECT_TRUE(broker.ok()) << broker.status();
  g.broker = std::move(broker).value();
  return g;
}

/// A degraded-policy partition group.
Group StartGroup(const StaticGraph& graph, uint32_t group_size,
                 FanoutPolicy policy, uint32_t gather_quorum = 0) {
  FanoutClusterOptions fopt;
  fopt.policy = policy;
  fopt.gather_quorum = gather_quorum;
  return StartGroup(graph, group_size, /*replicas=*/1, /*k=*/2, fopt);
}

struct TestWorkload {
  StaticGraph graph;
  std::vector<EdgeEvent> events;
};

TestWorkload MakeTestWorkload(size_t num_events = 4'000) {
  SocialGraphOptions gopt;
  gopt.num_users = 300;
  gopt.mean_followees = 10;
  gopt.seed = 707;
  auto graph = SocialGraphGenerator(gopt).Generate();
  EXPECT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = num_events;
  sopt.events_per_second = 300;
  sopt.burst_fraction = 0.3;
  sopt.seed = 708;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  EXPECT_TRUE(stream.ok());
  return TestWorkload{*std::move(graph), ToEvents(stream->events)};
}

TEST(FanoutDegradedTest, QuorumGatherSurvivesDaemonKilledMidstream) {
  // 4-daemon quorum group. Kill one daemon, keep going: the gather must
  // return the three surviving partitions' recommendations and the
  // GatherReport must name the dead one.
  TestWorkload w = MakeTestWorkload();
  constexpr uint32_t kGroup = 4;
  const ClusterOptions ref_options = MakeClusterOptions(kGroup);
  const std::vector<Recommendation> reference =
      Sorted(InlineReference(w.graph, ref_options, w.events));
  ASSERT_FALSE(reference.empty()) << "workload produced no motifs";

  Group g = StartGroup(w.graph, kGroup, FanoutPolicy::kQuorum);
  ASSERT_TRUE(g.broker->Ping().ok());

  // First half healthy.
  const size_t half = w.events.size() / 2;
  ASSERT_TRUE(
      g.broker->PublishBatch(std::span(w.events.data(), half)).ok());
  ASSERT_TRUE(g.broker->Drain().ok());

  // Kill daemon 2, then publish the rest in ONE call: the dead daemon's
  // share parks in its replay buffer and the publish succeeds — a retry
  // would double-deliver to the survivors and break byte-identity, so the
  // degraded contract must hold on the first attempt.
  const uint32_t victim = 2;
  g.daemons[victim].server->Stop();
  const Status published = g.broker->PublishBatch(
      std::span(w.events.data() + half, w.events.size() - half));
  ASSERT_TRUE(published.ok()) << published;

  // Drain tolerates the dead daemon (3/4 >= majority quorum of 3).
  ASSERT_TRUE(g.broker->Drain().ok());

  GatherReport report;
  auto degraded = g.broker->TakeRecommendations(&report);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(report.daemons_total, kGroup);
  EXPECT_EQ(report.daemons_answered, kGroup - 1);
  ASSERT_EQ(report.missing_partitions.size(), 1u);
  EXPECT_EQ(report.missing_partitions[0], victim);
  EXPECT_FALSE(report.complete());

  // (1) The degraded merge covers exactly the surviving partitions: every
  // reference recommendation NOT owned by the dead partition, except those
  // triggered by events the victim never received (parked in its replay
  // buffer — but those are all owned by the victim anyway).
  auto partitioner = g.broker->Partitioner();
  ASSERT_TRUE(partitioner.ok());
  std::vector<Recommendation> expected_survivors;
  for (const Recommendation& rec : reference) {
    if (partitioner->PartitionOf(rec.user) != victim) {
      expected_survivors.push_back(rec);
    }
  }
  EXPECT_EQ(Sorted(*degraded), Sorted(expected_survivors))
      << "degraded gather does not match the surviving partitions' share";

  // Staleness is visible in the broker's scrape section.
  EXPECT_GE(BrokerSeries(g.broker.get(), "counter broker_degraded_gathers"),
            1u);
  for (uint32_t p = 0; p < kGroup; ++p) {
    const uint64_t consecutive = BrokerSeries(
        g.broker.get(),
        StrFormat("gauge broker_gathers_missed_consecutive{party=\"p%u\"}",
                  p));
    if (p == victim) {
      EXPECT_GE(consecutive, 1u) << "p" << p;
    } else {
      EXPECT_EQ(consecutive, 0u) << "p" << p;
    }
  }

  // (3) Recovery: revive the daemon on the same port. Its replay buffer
  // flushes the parked second half, after which the union of everything
  // gathered is byte-identical to the strict-mode (inline) reference.
  const uint16_t dead_port = g.daemons[victim].server->port();
  g.daemons[victim].server->Stop();
  {
    RpcServerOptions ropt;
    ropt.port = dead_port;
    auto revived = RpcServer::Start(g.daemons[victim].hosted.get(), ropt);
    ASSERT_TRUE(revived.ok()) << revived.status();
    g.daemons[victim].server = std::move(revived).value();
  }
  std::vector<Recommendation> all = *degraded;
  for (int attempt = 0; attempt < 200; ++attempt) {
    ASSERT_TRUE(g.broker->Drain().ok());
    net::GatherReport taken_report;
    auto taken = g.broker->TakeRecommendations(&taken_report);
    ASSERT_TRUE(taken.ok()) << taken.status();
    all.insert(all.end(), taken->begin(), taken->end());
    if (taken_report.complete() &&
        all.size() >= reference.size()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(Sorted(all), reference)
      << "recovery did not restore byte-identical strict-mode results";
  EXPECT_GT(BrokerSeries(g.broker.get(), "counter broker_replayed_events"),
            0u)
      << "the parked publishes were never replayed";
  EXPECT_EQ(
      BrokerSeries(g.broker.get(), "counter broker_replay_dropped_events"),
      0u);
}

TEST(FanoutDegradedTest, StrictModeOnHealthyGroupMatchesInlineReference) {
  // The lock on PR 3 behavior: strict policy on a healthy group produces
  // byte-identical records to the inline broker, and a complete report.
  TestWorkload w = MakeTestWorkload(2'000);
  constexpr uint32_t kGroup = 2;
  const std::vector<Recommendation> reference = Sorted(
      InlineReference(w.graph, MakeClusterOptions(kGroup), w.events));
  ASSERT_FALSE(reference.empty());

  Group g = StartGroup(w.graph, kGroup, FanoutPolicy::kStrict);
  ASSERT_TRUE(g.broker->PublishBatch(w.events).ok());
  ASSERT_TRUE(g.broker->Drain().ok());
  GatherReport report;
  auto recs = g.broker->TakeRecommendations(&report);
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ(Sorted(*recs), reference);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(BrokerSeries(g.broker.get(), "counter broker_degraded_gathers"),
            0u);
  EXPECT_EQ(BrokerSeries(g.broker.get(), "counter broker_replayed_events"),
            0u);
}

TEST(FanoutDegradedTest, QuorumNotMetReturnsErrorAndRescues) {
  // 2-daemon group with quorum 2: one death means the gather FAILS (below
  // quorum), so it acknowledges nothing, and the healthy daemon sends its
  // share again to the next successful take — the strict-mode contract
  // under quorum policy.
  Group g = StartGroup(figure1::FollowGraph(), 2, FanoutPolicy::kQuorum,
                       /*gather_quorum=*/2);
  for (const EdgeEvent& event : ToEvents(figure1::DynamicEdges(0))) {
    ASSERT_TRUE(g.broker->Publish(event).ok());
  }
  ASSERT_TRUE(g.broker->Drain().ok());

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
  ASSERT_FALSE(failed.ok()) << "gather met a 2-quorum with 1 daemon";

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
  ASSERT_EQ(recs.size(), 1u) << "the unmerged recommendation was dropped";
  EXPECT_EQ(recs[0].user, figure1::kA2);
  EXPECT_EQ(recs[0].item, figure1::kC2);
}

TEST(FanoutDegradedTest, CarriedReplyIsBoundedAndCountsDrops) {
  // A take that does not ack the held reply carries it into the next one,
  // but only up to kMaxCarriedRecommendations: the rest are dropped and
  // counted, so a broker that never acks cannot grow a daemon's memory.
  std::vector<Recommendation> recs(net::kMaxCarriedRecommendations + 3);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].user = static_cast<VertexId>(i);
  }
  net_test::StubTransport stub;
  stub.AddRecommendations(recs);
  auto server = RpcServer::Start(&stub, RpcServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  auto session = net_test::RawSession::Open((*server)->port());
  ASSERT_TRUE(session.ok()) << session.status();

  std::vector<Recommendation> first;
  uint64_t first_take = 0;
  ASSERT_TRUE(session->Send(1, net_test::TakeRequest(/*ack=*/0)).ok());
  ASSERT_TRUE(session->ReadRecommendations(&first, &first_take).ok());
  EXPECT_EQ(first.size(), recs.size());
  EXPECT_NE(first_take, 0u);

  std::vector<Recommendation> second;
  uint64_t second_take = 0;
  ASSERT_TRUE(session->Send(2, net_test::TakeRequest(/*ack=*/0)).ok());
  ASSERT_TRUE(session->ReadRecommendations(&second, &second_take).ok());
  ASSERT_EQ(second.size(), net::kMaxCarriedRecommendations);
  EXPECT_EQ(second.back().user, net::kMaxCarriedRecommendations - 1)
      << "the carry keeps the oldest recommendations";
  EXPECT_NE(second_take, first_take);
  EXPECT_EQ((*server)->stats().carry_dropped, 3u);

  // Acking the carried reply frees it.
  std::vector<Recommendation> third;
  uint64_t third_take = 0;
  ASSERT_TRUE(session->Send(3, net_test::TakeRequest(second_take)).ok());
  ASSERT_TRUE(session->ReadRecommendations(&third, &third_take).ok());
  EXPECT_TRUE(third.empty());
  EXPECT_EQ((*server)->stats().carry_dropped, 3u);
}

TEST(FanoutDegradedTest, HeldRepliesAreBoundedPerBroker) {
  // A daemon holds one reply per broker, for at most kMaxHeldReplies
  // brokers: a take by one more drops the reply of the broker that took
  // least recently, counted as carry loss. A take naming no broker is
  // refused.
  std::vector<Recommendation> recs(5);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].user = static_cast<VertexId>(i);
  }
  net_test::StubTransport stub;
  stub.AddRecommendations(recs);
  auto server = RpcServer::Start(&stub, RpcServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  auto session = net_test::RawSession::Open((*server)->port());
  ASSERT_TRUE(session.ok()) << session.status();
  uint64_t request_id = 0;
  auto take = [&](uint64_t broker) {
    std::vector<Recommendation> got;
    uint64_t id = 0;
    EXPECT_TRUE(session
                    ->Send(++request_id,
                           net_test::TakeRequest(
                               /*ack=*/0, Placement::kAllPartitions, broker))
                    .ok());
    EXPECT_TRUE(session->ReadRecommendations(&got, &id).ok());
    return got.size();
  };

  // Broker 1 takes the five and never acks them.
  ASSERT_EQ(take(1), recs.size());
  // kMaxHeldReplies - 1 more brokers fill the table; the next one pushes
  // broker 1's reply out.
  for (uint64_t broker = 2; broker <= net::kMaxHeldReplies; ++broker) {
    ASSERT_EQ(take(broker), 0u);
  }
  EXPECT_EQ((*server)->stats().carry_dropped, 0u);
  ASSERT_EQ(take(net::kMaxHeldReplies + 1), 0u);
  EXPECT_EQ((*server)->stats().carry_dropped, recs.size());
  // Broker 1 comes back to nothing; the reply it pushes out was empty.
  EXPECT_EQ(take(1), 0u);
  EXPECT_EQ((*server)->stats().carry_dropped, recs.size());

  ASSERT_TRUE(session->Send(++request_id,
                            net_test::TakeRequest(
                                /*ack=*/0, Placement::kAllPartitions,
                                /*broker=*/0))
                  .ok());
  net::Frame reply;
  ASSERT_TRUE(session->ReadReply(&reply).ok());
  ASSERT_EQ(reply.tag, net::MessageTag::kError);
  EXPECT_TRUE(net::DecodeError(reply.payload).IsInvalidArgument());
}

TEST(FanoutDegradedTest, TakeReplyPastTheTimeoutIsDeliveredOnce) {
  // The daemon's first take answers only after the broker's recv timeout,
  // so the broker drops the lane while the reply, holding Figure 1's one
  // recommendation, is still on its way. The daemon holds that reply until
  // a take acks it: the recommendation arrives exactly once, by a later
  // take, under a strict and a quorum broker alike.
  for (const FanoutPolicy policy :
       {FanoutPolicy::kStrict, FanoutPolicy::kQuorum}) {
    SCOPED_TRACE(std::string(net::FanoutPolicyName(policy)));
    auto hosted =
        Cluster::Create(figure1::FollowGraph(), MakeClusterOptions(2));
    ASSERT_TRUE(hosted.ok()) << hosted.status();
    ASSERT_TRUE((*hosted)->Start().ok());
    SlowFirstTakeTransport slow(hosted->get(), std::chrono::milliseconds(600));
    auto server = RpcServer::Start(&slow, RpcServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status();
    FanoutClusterOptions fopt;
    fopt.policy = policy;
    fopt.recv_timeout_ms = 150;
    fopt.endpoints.resize(1);
    fopt.endpoints[0].port = (*server)->port();
    auto broker = FanoutCluster::Connect(fopt);
    ASSERT_TRUE(broker.ok()) << broker.status();
    for (const EdgeEvent& event : ToEvents(figure1::DynamicEdges(0))) {
      ASSERT_TRUE((*broker)->Publish(event).ok());
    }
    ASSERT_TRUE((*broker)->Drain().ok());

    std::vector<Recommendation> delivered;
    for (int i = 0; i < 60; ++i) {
      auto taken = (*broker)->TakeRecommendations();
      if (taken.ok()) {
        delivered.insert(delivered.end(), taken->begin(), taken->end());
        if (!taken->empty()) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_EQ(delivered.size(), 1u)
        << "Figure 1's recommendation was not delivered exactly once";
    EXPECT_EQ(delivered[0].user, figure1::kA2);
    EXPECT_EQ(delivered[0].item, figure1::kC2);
    auto next = (*broker)->TakeRecommendations();
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_TRUE(next->empty()) << "the delivered recommendation came again";
    ASSERT_TRUE((*broker)->Close().ok());
    (*server)->Stop();
  }
}

TEST(FanoutDegradedTest, StalledPublishFailsOverToReplayExactlyOnce) {
  // One daemon whose transport stalls its first PublishBatch far past the
  // broker's recv timeout: the publish lane times out, the unacked frame
  // parks in the replay buffer, and the publish returns without waiting
  // out the stall. The stalled original still applies; the later replay
  // of the same frame is suppressed by the server's sequence dedup, so
  // the events are applied exactly once. This is the one test where a
  // frame the daemon received but never acked is replayed: without the
  // dedup the replay would apply it a second time.
  TestWorkload w = MakeTestWorkload(256);
  ClusterOptions options = MakeClusterOptions(2);

  auto hosted = Cluster::Create(w.graph, options);
  ASSERT_TRUE(hosted.ok()) << hosted.status();
  ASSERT_TRUE((*hosted)->Start().ok());
  constexpr auto kStall = std::chrono::milliseconds(400);
  DelayingTransport delaying(hosted->get(), kStall, /*delays=*/1);
  auto server = RpcServer::Start(&delaying, RpcServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();

  FanoutClusterOptions fopt;
  fopt.group_size = 2;
  fopt.policy = FanoutPolicy::kQuorum;
  fopt.recv_timeout_ms = 120;
  FanoutEndpoint endpoint;
  endpoint.port = (*server)->port();
  fopt.endpoints.push_back(endpoint);
  auto broker = FanoutCluster::Connect(fopt);
  ASSERT_TRUE(broker.ok()) << broker.status();

  // One 256-event batch = one frame. The daemon sleeps 400ms inside its
  // apply; the broker's 120ms ack timeout fails the lane over to the
  // replay buffer, and parked is success under a degraded policy.
  const auto publish_start = std::chrono::steady_clock::now();
  ASSERT_TRUE((*broker)->PublishBatch(w.events).ok());
  const auto publish_took = std::chrono::steady_clock::now() - publish_start;
  EXPECT_LT(publish_took, kStall - std::chrono::milliseconds(100))
      << "the publish waited out the stall instead of failing over";

  // Wait out the stalled original and the backoff window; the next broker
  // calls flush the parked frame, which the server dup-acks (the
  // original's copy applied).
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  Status recovered;
  for (int i = 0; i < 100; ++i) {
    recovered = (*broker)->Ping();
    if (recovered.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(recovered.ok()) << recovered;
  ASSERT_TRUE((*broker)->Drain().ok());
  ASSERT_TRUE((*hosted)->Drain().ok());
  // Exactly-once accounting end to end: every parked event was replayed,
  // the daemon applied each event one time, and the replayed copy was
  // suppressed by the sequence dedup, not silently double-applied.
  EXPECT_EQ(BrokerSeries(broker->get(), "counter broker_replayed_events"),
            w.events.size())
      << "the timed-out frame never went through the replay buffer";
  EXPECT_EQ((*hosted)->events_published(), w.events.size())
      << "replayed batch was applied twice (dedup failed) or dropped";
  EXPECT_EQ((*hosted)->AggregatedStats().events, w.events.size())
      << "the daemon's one D must ingest every event exactly once";
  EXPECT_GE((*server)->stats().duplicate_batches, 1u)
      << "no duplicate was ever suppressed — the exactly-once result above "
         "would then be luck, not dedup";
}

TEST(FanoutDegradedTest, RestartedBrokerIsNotDupSuppressed) {
  // The daemon's dedup window is keyed by the raw sequence and outlives
  // any one broker's connections. A restarted broker — or a second broker
  // publishing to the same daemon — must not have its genuinely NEW
  // batches acked-without-applying because an earlier incarnation already
  // burned the same sequence values: that is silent event loss reported
  // as success. Sequences carry a random per-incarnation epoch, so the
  // second incarnation below draws from a disjoint range.
  TestWorkload w = MakeTestWorkload(512);
  ClusterOptions options = MakeClusterOptions(2);
  auto hosted = Cluster::Create(w.graph, options);
  ASSERT_TRUE(hosted.ok()) << hosted.status();
  ASSERT_TRUE((*hosted)->Start().ok());
  auto server = RpcServer::Start(hosted->get(), RpcServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();

  FanoutClusterOptions fopt;
  fopt.group_size = 2;
  fopt.policy = FanoutPolicy::kQuorum;
  FanoutEndpoint endpoint;
  endpoint.port = (*server)->port();
  fopt.endpoints.push_back(endpoint);

  // Each 256-event publish is exactly one frame (kPublishChunkEvents), so
  // each incarnation emits exactly one sequence — a bare counter would
  // collide on its very first batch.
  {
    auto first = FanoutCluster::Connect(fopt);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE((*first)->PublishBatch(std::span(w.events.data(), 256)).ok());
    ASSERT_TRUE((*first)->Close().ok());
  }
  auto second = FanoutCluster::Connect(fopt);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(
      (*second)->PublishBatch(std::span(w.events.data() + 256, 256)).ok());
  ASSERT_TRUE((*second)->Drain().ok());
  EXPECT_EQ((*hosted)->events_published(), w.events.size())
      << "the restarted broker's first batch was dup-suppressed";
}

TEST(FanoutDegradedTest, RacingDuplicateWaitsForOriginalApplyOutcome) {
  // A replayed copy that arrives while the original's apply is still
  // in flight must not be blind-acked: if the original then FAILS, the
  // batch never landed and the broker would treat it as delivered. The
  // duplicate has to wait for the original's outcome and, on failure,
  // claim the sequence and apply the batch itself.
  TestWorkload w = MakeTestWorkload(64);
  ClusterOptions options = MakeClusterOptions(2);
  auto hosted = Cluster::Create(w.graph, options);
  ASSERT_TRUE(hosted.ok()) << hosted.status();
  ASSERT_TRUE((*hosted)->Start().ok());
  GatedFailingTransport gated(hosted->get());
  auto server = RpcServer::Start(&gated, RpcServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();

  std::string frame;
  net::AppendPublishBatch(w.events, &frame, /*batch_sequence=*/0x1234);

  // Original copy: its handler enters the (gated, doomed) apply.
  auto original = net_test::RawSession::Open((*server)->port());
  ASSERT_TRUE(original.ok()) << original.status();
  ASSERT_TRUE(original->Send(1, frame).ok());
  for (int i = 0; i < 500 && !gated.first_apply_started(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(gated.first_apply_started());

  // Replayed copy on a fresh connection, racing the in-flight apply. Give
  // its handler time to reach the dedup admission before resolving the
  // original (the interesting interleaving either way: if it has not
  // arrived yet, it simply finds no trace of the failed sequence later).
  auto replay = net_test::RawSession::Open((*server)->port());
  ASSERT_TRUE(replay.ok()) << replay.status();
  ASSERT_TRUE(replay->Send(1, frame).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated.Release();

  // The original reports the injected failure; the replay is acked only
  // because it applied the batch itself.
  net::Frame reply;
  ASSERT_TRUE(original->ReadReply(&reply).ok());
  EXPECT_EQ(reply.tag, net::MessageTag::kError);
  ASSERT_TRUE(replay->ReadReply(&reply).ok());
  EXPECT_EQ(reply.tag, net::MessageTag::kAck)
      << "the duplicate of a failed apply must succeed, not inherit the "
         "failure";

  // Exactly one application landed despite two deliveries and one failure.
  ASSERT_TRUE(hosted->get()->Drain().ok());
  EXPECT_EQ(hosted->get()->events_published(), w.events.size())
      << "racing duplicate was blind-acked over a failed apply (0 = lost) "
         "or double-applied (2x)";
}

TEST(FanoutDegradedTest, StrictBrokerFramesCarrySequencesSoCopiesDedup) {
  // One publish encoding: a strict-policy broker sequence-tags every frame
  // too, so any copy of a frame that reaches a daemon twice is applied
  // once. A capturing fake daemon records what the broker puts on the
  // wire; a real daemon then receives one captured frame twice, on two
  // connections, and must dup-ack the second copy.
  auto listener = net::TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::vector<net::Frame> captured;  // inner publish-batch frames
  std::thread fake([&] {
    Result<net::TcpSocket> peer = listener->Accept();
    ASSERT_TRUE(peer.ok()) << peer.status();
    net::FrameAssembler assembler;
    net::Frame frame;
    ASSERT_TRUE(net::ReceiveFrame(&*peer, &assembler, &frame).ok());
    ASSERT_EQ(frame.tag, net::MessageTag::kHello);
    std::string reply;
    net::AppendHelloReply(net::kFeatureMux | net::kFeatureTrace, 64,
                          Placement{}, &reply);
    ASSERT_TRUE(peer->WriteAll(reply.data(), reply.size()).ok());
    // Ack every request until the broker hangs up.
    while (net::ReceiveFrame(&*peer, &assembler, &frame).ok()) {
      uint64_t id = 0;
      net::Frame inner;
      ASSERT_TRUE(net::DecodeMuxRequest(frame.payload, &id, &inner).ok());
      if (inner.tag == net::MessageTag::kPublishBatch) {
        captured.push_back(inner);
      }
      std::string ack;
      net::AppendAck(&ack);
      std::string envelope;
      net::AppendMuxResponse(id, /*last=*/true, ack, &envelope);
      ASSERT_TRUE(peer->WriteAll(envelope.data(), envelope.size()).ok());
    }
  });

  TestWorkload w = MakeTestWorkload(2 * net::kPublishChunkEvents);
  {
    FanoutClusterOptions fopt;
    ASSERT_EQ(fopt.policy, FanoutPolicy::kStrict);
    fopt.trace_sample_every = 0;
    fopt.recv_timeout_ms = 10'000;
    fopt.endpoints.resize(1);
    fopt.endpoints[0].port = listener->port();
    auto broker = FanoutCluster::Connect(fopt);
    ASSERT_TRUE(broker.ok()) << broker.status();
    ASSERT_TRUE((*broker)->PublishBatch(w.events).ok());
    ASSERT_TRUE((*broker)->Close().ok());
  }
  fake.join();
  ASSERT_EQ(captured.size(), 2u) << "two chunk-sized frames expected";
  uint64_t sequences[2] = {};
  for (int i = 0; i < 2; ++i) {
    std::vector<EdgeEvent> events;
    ASSERT_TRUE(net::DecodePublishBatch(captured[i].payload, &events,
                                        &sequences[i])
                    .ok());
    EXPECT_EQ(events.size(), net::kPublishChunkEvents);
    EXPECT_NE(sequences[i], 0u) << "strict frame " << i << " is untagged";
  }
  EXPECT_NE(sequences[0], sequences[1]);

  Daemon daemon = StartDaemon(w.graph, MakeClusterOptions(2));
  std::string copy;
  net::AppendFrame(captured[0].tag, captured[0].payload, &copy);
  for (uint64_t attempt = 0; attempt < 2; ++attempt) {
    auto session = net_test::RawSession::Open(daemon.server->port());
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE(session->Send(attempt, copy).ok());
    net::Frame reply;
    ASSERT_TRUE(session->ReadReply(&reply).ok());
    EXPECT_EQ(reply.tag, net::MessageTag::kAck) << "copy " << attempt;
  }
  ASSERT_TRUE(daemon.hosted->Drain().ok());
  EXPECT_EQ(daemon.hosted->events_published(), net::kPublishChunkEvents)
      << "the second copy was applied again";
  EXPECT_EQ(daemon.server->stats().duplicate_batches, 1u);
}

/// A 2-daemon quorum group whose daemon 1 was stopped while a publish of
/// `events` parked for it. Its reconnect backoff is 1 ms, so a revive is
/// reachable by the broker call right after it.
Group StartGroupOwingDaemon1(const TestWorkload& w, uint32_t replicas) {
  FanoutClusterOptions fopt;
  fopt.policy = FanoutPolicy::kQuorum;
  fopt.reconnect_backoff_ms = 1;
  fopt.max_reconnect_backoff_ms = 1;
  Group g = StartGroup(w.graph, 2, replicas, /*k=*/2, fopt);
  g.daemons[1].server->Stop();
  EXPECT_TRUE(g.broker->PublishBatch(w.events).ok())
      << "a quorum publish parks the stopped daemon's share";
  return g;
}

/// Restarts daemon 1 on its old port serving `transport` (its hosted
/// cluster, or a decorator over it) and waits out the broker's backoff:
/// the next broker call is the first to reach it, and flushes its replay.
void ReviveDaemon1(Group* g, ClusterTransport* transport) {
  RpcServerOptions ropt;
  ropt.port = g->daemons[1].server->port();
  auto revived = RpcServer::Start(transport, ropt);
  ASSERT_TRUE(revived.ok()) << revived.status();
  g->daemons[1].server = std::move(revived).value();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(FanoutDegradedTest, ReplayBufferOverflowIsExplicit) {
  // A replay buffer bounded at 100 events, and no health monitor: 64-event
  // batches park for the stopped daemon 1 until one would cross the bound.
  // That publish is refused whole, before it is sent: the healthy daemon
  // never applies it, nothing is dropped, and once daemon 1 is back both
  // daemons hold the same events.
  TestWorkload w = MakeTestWorkload(1'024);
  FanoutClusterOptions fopt;
  fopt.policy = FanoutPolicy::kQuorum;
  fopt.gather_quorum = 1;
  fopt.replay_buffer_events = 100;
  fopt.reconnect_backoff_ms = 1;
  fopt.max_reconnect_backoff_ms = 1;
  ASSERT_EQ(fopt.health_interval_ms, 0);
  Group g = StartGroup(w.graph, 2, /*replicas=*/1, /*k=*/2, fopt);
  g.daemons[1].server->Stop();

  Status status;
  int overflow_at = -1;
  for (int i = 0; i < 10; ++i) {
    status = g.broker->PublishBatch(std::span(w.events.data() + i * 64, 64));
    if (status.IsResourceExhausted()) {
      overflow_at = i;
      break;
    }
  }
  ASSERT_GE(overflow_at, 0) << "overflow never surfaced: " << status;
  EXPECT_NE(status.ToString().find("replay buffer full"), std::string::npos)
      << status;
  EXPECT_NE(status.ToString().find("(partition 1)"), std::string::npos)
      << status;
  const uint64_t accepted = static_cast<uint64_t>(overflow_at) * 64;
  ASSERT_TRUE(g.broker->Drain().ok());
  EXPECT_EQ(g.daemons[0].hosted->events_published(), accepted)
      << "the healthy daemon applied the refused batch";
  EXPECT_EQ(
      BrokerSeries(g.broker.get(), "counter broker_replay_dropped_events"),
      0u);
  EXPECT_EQ(BrokerSeries(g.broker.get(), "counter broker_shed_publishes"),
            1u);

  ReviveDaemon1(&g, g.daemons[1].hosted.get());
  ASSERT_TRUE(g.broker->Drain().ok());
  for (const Daemon& daemon : g.daemons) {
    EXPECT_EQ(daemon.hosted->events_published(), accepted);
    EXPECT_EQ(daemon.hosted->AggregatedStats().events, accepted);
  }
}

TEST(FanoutDegradedTest, ScrapeNamesAReplayRejectionInTheDaemonsSection) {
  // Whichever call first reaches a revived daemon flushes its replay
  // buffer. When that call is a stats-text scrape, which never fails on a
  // daemon, the rejection must still show — in that daemon's section —
  // or the only trace left is the replay_dropped_events counter.
  TestWorkload w = MakeTestWorkload(512);
  Group g = StartGroupOwingDaemon1(w, /*replicas=*/1);
  RejectingTransport rejecting(g.daemons[1].hosted.get());
  ReviveDaemon1(&g, &rejecting);

  auto text = g.broker->GetStatsText();
  ASSERT_TRUE(text.ok()) << text.status();
  const std::string header =
      "# source daemon 127.0.0.1:" +
      std::to_string(g.daemons[1].server->port()) + " partition 1\n";
  const size_t section = text->find(header);
  ASSERT_NE(section, std::string::npos) << *text;
  const size_t next_section = text->find("# source", section + 1);
  const size_t rejected = text->find("# replay rejected: ", section);
  ASSERT_NE(rejected, std::string::npos) << *text;
  EXPECT_LT(rejected, next_section)
      << "the rejection is outside daemon 1's section: " << *text;
  EXPECT_NE(text->find("injected publish rejection", rejected),
            std::string::npos)
      << *text;
  EXPECT_EQ(
      BrokerSeries(g.broker.get(), "counter broker_replay_dropped_events"),
      w.events.size());
}

TEST(FanoutDegradedTest, ReplayRejectionSurfacesExactlyOnce) {
  // A rejected replay is permanent event loss, not a coverage gap: the
  // first call to see it fails even though every daemon answered, the
  // loss is counted, and the call after it is clean.
  TestWorkload w = MakeTestWorkload(512);
  Group g = StartGroupOwingDaemon1(w, /*replicas=*/1);
  RejectingTransport rejecting(g.daemons[1].hosted.get());
  ReviveDaemon1(&g, &rejecting);

  const Status drained = g.broker->Drain();
  EXPECT_FALSE(drained.ok()) << "the quorum answered, but events were lost";
  EXPECT_NE(drained.ToString().find("injected publish rejection"),
            std::string::npos)
      << drained;
  EXPECT_NE(drained.ToString().find("partition 1"), std::string::npos)
      << drained;
  EXPECT_EQ(
      BrokerSeries(g.broker.get(), "counter broker_replay_dropped_events"),
      w.events.size());
  EXPECT_EQ(BrokerSeries(g.broker.get(), "counter broker_replayed_events"),
            0u);
  const Status again = g.broker->Drain();
  EXPECT_TRUE(again.ok()) << "the rejection surfaced twice: " << again;
}

TEST(FanoutDegradedTest, ReplicaOpFlushesWhatItsDaemonIsOwed) {
  // Replica ops acquire their one lane like every other broker call, so a
  // daemon's owed replay lands before the op does.
  TestWorkload w = MakeTestWorkload(512);
  Group g = StartGroupOwingDaemon1(w, /*replicas=*/2);
  ReviveDaemon1(&g, g.daemons[1].hosted.get());

  ASSERT_TRUE(g.broker->KillReplica(1, 0).ok());
  // Read the daemon directly: any broker call would flush on its own.
  EXPECT_EQ(g.daemons[1].hosted->events_published(), w.events.size())
      << "the replica op reached the daemon ahead of its parked events";
  EXPECT_EQ(BrokerSeries(g.broker.get(), "counter broker_replayed_events"),
            w.events.size());
  EXPECT_EQ(
      BrokerSeries(g.broker.get(), "counter broker_replay_dropped_events"),
      0u);
}

TEST(FanoutDegradedTest, StrictCallsStayStrictUnderQuorum) {
  // Drain and the scrape tolerate a missing daemon under quorum;
  // durability, topology verification and replica ops never do.
  ScopedTempDir dir;
  constexpr uint32_t kGroup = 4;
  std::vector<std::string> persist_dirs;
  for (uint32_t p = 0; p < kGroup; ++p) {
    persist_dirs.push_back(dir.path() + "/p" + std::to_string(p));
    std::filesystem::create_directories(persist_dirs.back());
  }
  FanoutClusterOptions fopt;
  fopt.policy = FanoutPolicy::kQuorum;
  Group g = StartGroup(figure1::FollowGraph(), kGroup, /*replicas=*/2,
                       /*k=*/2, fopt, persist_dirs);
  for (const EdgeEvent& event : ToEvents(figure1::DynamicEdges(0))) {
    ASSERT_TRUE(g.broker->Publish(event).ok());
  }
  ASSERT_TRUE(g.broker->Drain().ok());
  ASSERT_TRUE(g.broker->Checkpoint(Seconds(100)).ok());

  const uint32_t victim = 2;
  g.daemons[victim].server->Stop();
  const std::string named = "(partition 2)";

  EXPECT_TRUE(g.broker->Drain().ok());
  auto text = g.broker->GetStatsText();
  EXPECT_TRUE(text.ok()) << text.status();

  const Status checkpoint = g.broker->Checkpoint(Seconds(200));
  EXPECT_FALSE(checkpoint.ok()) << "a checkpoint skipped a daemon";
  EXPECT_NE(checkpoint.ToString().find(named), std::string::npos)
      << checkpoint;
  const Status ping = g.broker->Ping();
  EXPECT_FALSE(ping.ok()) << "Ping passed with a daemon down";
  EXPECT_NE(ping.ToString().find(named), std::string::npos) << ping;

  EXPECT_TRUE(g.broker->KillReplica(0, 1).ok());
  EXPECT_TRUE(g.broker->RecoverReplica(0, 1).ok());
  const Status routed = g.broker->KillReplica(victim, 1);
  EXPECT_FALSE(routed.ok()) << "a replica op reached a stopped daemon";
  EXPECT_NE(routed.ToString().find(named), std::string::npos) << routed;
}

TEST(FanoutDegradedTest, MidStreamShareIsResentNotMerged) {
  // A share a daemon streams before its lane fails is merged by no gather:
  // the report names its partition missing, the broker's cursor for it
  // stays put, and the daemon sends the share again — whole this time — to
  // the next gather, which delivers it once.
  Recommendation rec;
  rec.user = figure1::kA2;
  rec.item = figure1::kC2;
  rec.witness_count = 2;
  MidStreamDaemon scripted(rec, Fault::kHangUp);
  FanoutClusterOptions fopt;
  fopt.reconnect_backoff_ms = 1;
  fopt.max_reconnect_backoff_ms = 1;
  ScriptedGroup g = StartScriptedGroup(scripted, fopt);

  GatherReport report;
  auto first = g.broker->TakeRecommendations(&report);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->empty())
      << "the gather returned the share of a daemon its report names missing";
  EXPECT_EQ(report.missing_partitions, std::vector<uint32_t>{2});

  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // backoff
  auto second = g.broker->TakeRecommendations(&report);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->size(), 1u) << "the cut share was not sent again";
  EXPECT_EQ((*second)[0].user, rec.user);
  EXPECT_TRUE(report.complete()) << report.ToString();

  auto third = g.broker->TakeRecommendations(&report);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_TRUE(third->empty()) << "the merged share was delivered twice";
}

TEST(FanoutDegradedTest, StreamNamingTwoTakesIsNotMerged) {
  // Every chunk of one reply stream names the same take. A stream that
  // mixes ids is a decode error: merging it and acking its last id would
  // free nothing the daemon holds, and the share would come again.
  Recommendation rec;
  rec.user = figure1::kA2;
  rec.item = figure1::kC2;
  rec.witness_count = 2;
  MidStreamDaemon scripted(rec, Fault::kMixTakeIds);
  ScriptedGroup g = StartScriptedGroup(scripted, FanoutClusterOptions{});

  GatherReport report;
  auto first = g.broker->TakeRecommendations(&report);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->empty()) << "a stream naming two takes was merged";
  EXPECT_EQ(report.missing_partitions, std::vector<uint32_t>{2});

  auto second = g.broker->TakeRecommendations(&report);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->size(), 1u) << "the rejected share was not sent again";
  EXPECT_TRUE(report.complete()) << report.ToString();

  auto third = g.broker->TakeRecommendations(&report);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_TRUE(third->empty()) << "the merged share was delivered twice";
}

TEST(FanoutDegradedTest, CloseWaitsOutAnInFlightGather) {
  // Close() severs the connections and then waits out every in-flight
  // call — its tail included: a gather that fails below quorum still
  // writes its report after the lanes return, and must do so before
  // Close() lets the owner free the broker.
  Recommendation rec;
  rec.user = figure1::kA2;
  rec.item = figure1::kC2;
  rec.witness_count = 2;
  MidStreamDaemon scripted(rec, Fault::kFallSilent);
  FanoutClusterOptions fopt;
  fopt.gather_quorum = 3;
  ScriptedGroup g = StartScriptedGroup(scripted, fopt);

  GatherReport report;
  Status gathered;
  std::thread gather([&] {
    gathered = g.broker->TakeRecommendations(&report).status();
  });
  scripted.AwaitGathers(1);  // the gather is in flight
  ASSERT_TRUE(g.broker->Close().ok());
  EXPECT_EQ(report.daemons_total, 3u)
      << "Close() returned before the gather finished";
  gather.join();
  EXPECT_FALSE(gathered.ok()) << "a severed lane met a 3-of-3 quorum";
}

TEST(FanoutDegradedTest, ScrapeErrorIsTheDaemonsOwnMessage) {
  // A daemon whose replay flush was rejected and whose scrape then fails
  // gets both lines in its section: the scrape's own error as the daemon
  // sent it, and the rejection on its own line.
  TestWorkload w = MakeTestWorkload(512);
  Group g = StartGroupOwingDaemon1(w, /*replicas=*/1);
  RejectingTransport rejecting(g.daemons[1].hosted.get(),
                               /*reject_stats_text=*/true);
  ReviveDaemon1(&g, &rejecting);

  auto text = g.broker->GetStatsText();
  ASSERT_TRUE(text.ok()) << text.status();
  const std::string header =
      "# source daemon 127.0.0.1:" +
      std::to_string(g.daemons[1].server->port()) + " partition 1";
  EXPECT_NE(text->find(header + " error: injected stats-text failure\n"),
            std::string::npos)
      << *text;
  const size_t rejected = text->find("# replay rejected: ");
  ASSERT_NE(rejected, std::string::npos) << *text;
  EXPECT_NE(text->find("injected publish rejection", rejected),
            std::string::npos)
      << *text;
}

/// `n` events whose source ids count up from `first`: the order a daemon
/// applied them in is readable off the ids.
TEST(FanoutDegradedTest, EachBrokerScrapesItsOwnCounters) {
  // Two brokers in one process, one after the other, each with a daemon
  // down: every broker's scrape section must carry its own degraded-gather
  // count, and none of the daemons' series (those live in the process-wide
  // registry).
  for (const uint64_t gathers : {uint64_t{3}, uint64_t{1}}) {
    Group g = StartGroup(figure1::FollowGraph(), 2, FanoutPolicy::kQuorum,
                         /*gather_quorum=*/1);
    g.daemons[1].server->Stop();
    for (uint64_t i = 0; i < gathers; ++i) {
      GatherReport report;
      ASSERT_TRUE(g.broker->TakeRecommendations(&report).ok());
      ASSERT_FALSE(report.complete());
    }
    auto text = g.broker->GetStatsText();
    ASSERT_TRUE(text.ok()) << text.status();
    const std::string broker_section =
        text->substr(0, text->find("# source daemon"));
    EXPECT_NE(broker_section.find(
                  StrFormat("counter broker_degraded_gathers %llu\n",
                            static_cast<unsigned long long>(gathers))),
              std::string::npos)
        << broker_section;
    EXPECT_EQ(broker_section.find("counter detector_events"),
              std::string::npos)
        << broker_section;
  }
}

std::vector<EdgeEvent> NumberedEvents(VertexId first, size_t n) {
  std::vector<EdgeEvent> events(n);
  for (size_t i = 0; i < n; ++i) {
    const VertexId id = first + static_cast<VertexId>(i);
    events[i].edge = TimestampedEdge{id, 7, static_cast<Timestamp>(id)};
  }
  return events;
}

TEST(FanoutDegradedTest, ReplayFlushIsPipelined) {
  // A daemon owed 16 parked frames gets them as one pipelined exchange,
  // not one request/ack round trip each: while the first replayed publish
  // is held in the transport, the other 15 queue behind it, so the daemon
  // acks them together.
  constexpr size_t kFrames = 16;
  const std::vector<EdgeEvent> events =
      NumberedEvents(1, kFrames * net::kPublishChunkEvents);
  net_test::StubTransport stub;
  uint16_t port = 0;
  {
    // A port that refuses connections while the frames park.
    auto probe = RpcServer::Start(&stub, RpcServerOptions{});
    ASSERT_TRUE(probe.ok()) << probe.status();
    port = (*probe)->port();
  }
  FanoutClusterOptions fopt;
  fopt.policy = FanoutPolicy::kQuorum;
  fopt.gather_quorum = 1;
  fopt.trace_sample_every = 0;
  fopt.reconnect_backoff_ms = 1;
  fopt.max_reconnect_backoff_ms = 1;
  fopt.endpoints.resize(1);
  fopt.endpoints[0].port = port;
  auto broker = FanoutCluster::Connect(fopt);
  ASSERT_TRUE(broker.ok()) << broker.status();
  ASSERT_TRUE((*broker)->PublishBatch(events).ok());

  HistogramMetric* frames_per_writev = MetricsRegistry::Default()->GetHistogram(
      "rpc_frames_per_writev",
      {{"server", StrFormat("127.0.0.1:%u", static_cast<unsigned>(port))}});
  const Histogram before = frames_per_writev->Snapshot();
  stub.GatePublishes();
  RpcServerOptions ropt;
  ropt.port = port;
  auto server = RpcServer::Start(&stub, ropt);
  ASSERT_TRUE(server.ok()) << server.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // backoff

  Status drained;
  std::thread flush([&] { drained = (*broker)->Drain(); });
  for (int i = 0; i < 500 && !stub.publish_blocked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(stub.publish_blocked());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stub.Release();
  flush.join();
  ASSERT_TRUE(drained.ok()) << drained;

  const std::vector<EdgeEvent> seen = stub.published();
  ASSERT_EQ(seen.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(seen[i].edge, events[i].edge) << "event " << i;
  }
  EXPECT_EQ(BrokerSeries(broker->get(), "counter broker_replayed_events"),
            events.size());
  // The loop records a writev's sample only after the kernel took the
  // bytes, so the acks can be read before it lands.
  auto most_frames_per_writev = [&] {
    return frames_per_writev->Snapshot().DeltaSince(before).Max();
  };
  for (int i = 0; i < 500 && most_frames_per_writev() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(most_frames_per_writev(), 2)
      << "the replayed frames were sent one round trip at a time";
}

TEST(FanoutDegradedTest, LaneDyingMidPublishDropsWhatItCannotPark) {
  // Admission sees only lanes that are down before the send. The scripted
  // daemon is up then, acks the first of three frames and hangs up, which
  // leaves two frames unsent against a one-frame buffer: the backstop
  // counts their events dropped and the call names the daemon.
  Recommendation rec;
  rec.user = figure1::kA2;
  rec.item = figure1::kC2;
  MidStreamDaemon scripted(rec, Fault::kHangUpAfterFirstAck);
  FanoutClusterOptions fopt;
  fopt.replay_buffer_events = net::kPublishChunkEvents;
  fopt.trace_sample_every = 0;
  ScriptedGroup g = StartScriptedGroup(scripted, fopt);

  const Status published = g.broker->PublishBatch(
      NumberedEvents(1, 3 * net::kPublishChunkEvents));
  ASSERT_TRUE(published.IsResourceExhausted()) << published;
  EXPECT_NE(published.ToString().find("(partition 2)"), std::string::npos)
      << published;
  EXPECT_EQ(
      BrokerSeries(g.broker.get(), "counter broker_replay_dropped_events"),
      2 * net::kPublishChunkEvents);
  EXPECT_EQ(BrokerSeries(g.broker.get(), "counter broker_shed_publishes"),
            0u);
}

// --- the exchange, seeded ----------------------------------------------------

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 0xe8c4'a11e'2026ull;
}

/// One stub daemon of the fuzz, and what the model expects of it.
struct FuzzDaemon {
  net_test::StubTransport stub;
  std::unique_ptr<RpcServer> server;
  uint16_t port = 0;
  bool running = true;
  bool ever_stopped = false;
  std::vector<VertexId> queued;  ///< ids of the recommendations it emitted
  int rejections = 0;        ///< scripted, not yet consumed
  size_t parked_frames = 0;  ///< owed by the broker's replay buffer
  size_t parked_events = 0;  ///< the events of those frames
};

TEST(FanoutDegradedTest, ExchangeFuzz) {
  // Each trial puts a broker under a random policy in front of three stub
  // daemons and runs a random mix of multi-frame publishes (some longer
  // than the exchange window), drains, gathers, numbered recommendations
  // each daemon's take hands out once, scripted publish rejections and one
  // stop/restart of a daemon on its own port. A model of the policy
  // predicts every call's outcome: a call fails iff a lane failed under
  // strict, a daemon rejected a frame — a fresh one or a replayed one — or
  // a stopped daemon's buffer could not hold a publish, which is then
  // refused whole.
  // Afterwards every daemon must have applied each event at most once, in
  // publish order, over the one connection it accepted (a rejection never
  // poisons a lane), and every parked event must be counted replayed or
  // dropped. After one last gather, no recommendation has arrived twice,
  // and each one of a daemon never stopped has arrived exactly once; the
  // stopped daemon's old server lost the reply it held, so each of its
  // recommendations arrives at most once.
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  constexpr int kTrials = 16;
  constexpr int kOps = 20;
  constexpr uint32_t kDaemons = 3;
  // The longest publish: 8 frames past the exchange window.
  constexpr size_t kMaxFrames = net::kPublishWindowFrames + 8;
  // Strict, a majority quorum, and a quorum of one.
  const std::pair<FanoutPolicy, uint32_t> policies[] = {
      {FanoutPolicy::kStrict, 0},
      {FanoutPolicy::kQuorum, 0},
      {FanoutPolicy::kQuorum, 1}};
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto [policy, quorum] = policies[rng.UniformInt(std::size(policies))];
    const bool degraded = policy != FanoutPolicy::kStrict;
    std::vector<std::unique_ptr<FuzzDaemon>> daemons;
    FanoutClusterOptions fopt;
    fopt.policy = policy;
    fopt.gather_quorum = quorum;
    // One longest publish fits, so the first publish after a stop parks
    // whole even on a lane the broker has not yet seen fail; a second can
    // be refused.
    fopt.replay_buffer_events = kMaxFrames * net::kPublishChunkEvents;
    fopt.group_size = kDaemons;
    fopt.reconnect_backoff_ms = 1;
    fopt.max_reconnect_backoff_ms = 1;
    RpcServerOptions server_options;
    server_options.worker_threads = 1;
    for (uint32_t p = 0; p < kDaemons; ++p) {
      auto daemon = std::make_unique<FuzzDaemon>();
      daemon->stub.set_placement({.group_size = kDaemons, .partition = p});
      auto server = RpcServer::Start(&daemon->stub, server_options);
      ASSERT_TRUE(server.ok()) << server.status();
      daemon->server = std::move(server).value();
      daemon->port = daemon->server->port();
      FanoutEndpoint endpoint;
      endpoint.port = daemon->port;
      endpoint.partition = p;
      fopt.endpoints.push_back(endpoint);
      daemons.push_back(std::move(daemon));
    }
    auto broker = FanoutCluster::Connect(fopt);
    ASSERT_TRUE(broker.ok()) << broker.status();

    VertexId next_id = 1;
    VertexId next_rec = 1;
    std::vector<Recommendation> delivered;
    size_t parked_events = 0;
    FuzzDaemon* stopped = nullptr;
    bool restarted = false;
    int ops_while_stopped = 0;
    auto restart = [&] {
      RpcServerOptions ropt = server_options;
      ropt.port = stopped->port;
      auto server = RpcServer::Start(&stopped->stub, ropt);
      ASSERT_TRUE(server.ok()) << server.status();
      stopped->server = std::move(server).value();
      stopped->running = true;
      stopped = nullptr;
      restarted = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));  // backoff
    };
    // Every call first flushes what each reachable daemon is owed; a
    // scripted rejection meets the replayed frames before fresh ones.
    auto model_flush = [&] {
      bool rejected = false;
      for (auto& d : daemons) {
        if (!d->running || d->parked_frames == 0) continue;
        const int hit = static_cast<int>(
            std::min<size_t>(d->rejections, d->parked_frames));
        d->rejections -= hit;
        rejected |= hit > 0;
        d->parked_frames = 0;
        d->parked_events = 0;
      }
      return rejected;
    };
    // One call, checked against the model.
    auto call = [&](const std::string& what, bool expect_fail,
                    const Status& status) {
      EXPECT_EQ(!status.ok(), expect_fail) << what << ": " << status;
      if (stopped != nullptr) ops_while_stopped++;
    };

    for (int op = 0; op < kOps; ++op) {
      // A daemon emits up to two fresh recommendations for its next take.
      FuzzDaemon* emitter = daemons[rng.UniformInt(kDaemons)].get();
      std::vector<Recommendation> fresh(rng.UniformInt(3));
      for (Recommendation& rec : fresh) {
        rec.user = next_rec++;
        emitter->queued.push_back(rec.user);
      }
      emitter->stub.AddRecommendations(fresh);

      const uint64_t dice = rng.UniformInt(10);
      if (dice == 0 && stopped == nullptr && !restarted) {
        stopped = daemons[rng.UniformInt(kDaemons)].get();
        stopped->server->Stop();
        stopped->running = false;
        stopped->ever_stopped = true;
        ops_while_stopped = 0;
      } else if (dice == 0 && stopped != nullptr && ops_while_stopped > 0) {
        // At least one call saw the stopped daemon, so the broker has
        // dropped its old connection: the restart is reachable at once.
        restart();
      } else if (dice == 1) {
        FuzzDaemon* d = daemons[rng.UniformInt(kDaemons)].get();
        const int n = 1 + static_cast<int>(rng.UniformInt(2));
        d->stub.RejectPublishes(n);
        d->rejections += n;
      } else if (dice < 6) {
        // One publish in four runs past the exchange window (up to 40
        // frames), so its lanes refill after reaping, and so does the
        // replay flush that later carries it.
        const size_t max_frames = rng.UniformInt(4) == 0 ? kMaxFrames : 4;
        const size_t n =
            1 + rng.UniformInt(max_frames * net::kPublishChunkEvents);
        const size_t frames =
            (n + net::kPublishChunkEvents - 1) / net::kPublishChunkEvents;
        const std::vector<EdgeEvent> events = NumberedEvents(next_id, n);
        next_id += static_cast<VertexId>(n);
        bool expect_fail = model_flush();
        // A publish a stopped daemon's buffer cannot hold is refused
        // whole: it reaches no daemon, so it consumes no rejection and
        // parks nothing.
        const bool refused =
            degraded && std::any_of(daemons.begin(), daemons.end(),
                                    [&](const auto& d) {
                                      return !d->running &&
                                             d->parked_events + n >
                                                 fopt.replay_buffer_events;
                                    });
        expect_fail |= refused;
        for (auto& d : daemons) {
          if (refused) break;
          if (d->running) {
            const int hit =
                static_cast<int>(std::min<size_t>(d->rejections, frames));
            d->rejections -= hit;
            expect_fail |= hit > 0;
          } else if (degraded) {
            d->parked_frames += frames;
            d->parked_events += n;
            parked_events += n;
          } else {
            expect_fail = true;
          }
        }
        call(StrFormat("publish of %zu events", n), expect_fail,
             (*broker)->PublishBatch(events));
      } else {
        const bool expect_fail =
            model_flush() || (!degraded && stopped != nullptr);
        if (dice < 8) {
          call("drain", expect_fail, (*broker)->Drain());
        } else {
          auto taken = (*broker)->TakeRecommendations();
          call("gather", expect_fail, taken.status());
          if (taken.ok()) {
            delivered.insert(delivered.end(), taken->begin(), taken->end());
          }
        }
      }
    }

    // The final flush: every daemon reachable, every parked frame settled.
    if (stopped != nullptr) restart();
    call("final drain", model_flush(), (*broker)->Drain());
    EXPECT_EQ(
        BrokerSeries(broker->get(), "counter broker_replayed_events") +
            BrokerSeries(broker->get(),
                         "counter broker_replay_dropped_events"),
        parked_events)
        << "parked events went missing from the replay accounting";
    auto last = (*broker)->TakeRecommendations();
    call("final gather", false, last.status());
    if (last.ok()) delivered.insert(delivered.end(), last->begin(), last->end());
    std::vector<int> arrivals(next_rec);
    for (const Recommendation& rec : delivered) {
      ASSERT_LT(rec.user, next_rec) << "a gather invented a recommendation";
      EXPECT_EQ(++arrivals[rec.user], 1)
          << "recommendation " << rec.user << " arrived twice";
    }
    for (uint32_t p = 0; p < kDaemons; ++p) {
      if (daemons[p]->ever_stopped) continue;  // at most once, checked above
      for (const VertexId id : daemons[p]->queued) {
        EXPECT_EQ(arrivals[id], 1)
            << "daemon " << p << "'s recommendation " << id << " was lost";
      }
    }
    for (uint32_t p = 0; p < kDaemons; ++p) {
      const std::vector<EdgeEvent> seen = daemons[p]->stub.published();
      for (size_t i = 1; i < seen.size(); ++i) {
        ASSERT_LT(seen[i - 1].edge.src, seen[i].edge.src)
            << "daemon " << p << " applied an event twice or out of order";
      }
      EXPECT_EQ(daemons[p]->server->stats().connections_accepted, 1u)
          << "daemon " << p << ": the broker redialed a lane that never "
          << "failed";
    }
    ASSERT_TRUE((*broker)->Close().ok());
  }
}

TEST(FanoutDegradedTest, QuorumValidationAtConnect) {
  FanoutClusterOptions fopt;
  fopt.endpoints.resize(2);
  fopt.endpoints[0].partition = 0;
  fopt.endpoints[1].partition = 1;
  fopt.policy = FanoutPolicy::kQuorum;
  fopt.gather_quorum = 3;  // > endpoints
  EXPECT_TRUE(FanoutCluster::Connect(fopt).status().IsInvalidArgument());
}

}  // namespace
}  // namespace magicrecs
