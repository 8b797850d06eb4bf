// Acceptance for the broker health monitor: a kAuto partition-group broker
// starts strict, watches its own health engine, flips itself to quorum
// when a daemon dies, keeps publishing, journals the flip with the
// triggering window values, and flips back after recovery + dwell. Any
// other policy under a monitor is pinned: scored and journaled, never
// flipped. With health_interval_ms = 0 the broker runs no monitor at all.

#include <dirent.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "health/health_engine.h"
#include "net/fanout_cluster.h"
#include "net/rpc_server.h"
#include "util/event_log.h"
#include "../net/fanout_test_util.h"

namespace magicrecs {
namespace {

using fanout_test::Group;
using fanout_test::StartGroup;
using net::FanoutClusterOptions;
using net::FanoutPolicy;
using net::RpcServerOptions;
using net::RpcServer;

/// Monitored broker options tuned for test time: 25ms evaluation ticks.
FanoutClusterOptions MonitoredOptions(
    FanoutPolicy policy = FanoutPolicy::kAuto) {
  FanoutClusterOptions fopt;
  fopt.policy = policy;
  fopt.health_interval_ms = 25;
  // Short reconnect backoff so recovery detection is not dominated by the
  // dial backoff cap.
  fopt.max_reconnect_backoff_ms = 100;
  return fopt;
}

EdgeEvent Tick(Timestamp at) {
  EdgeEvent event;
  event.edge = {figure1::kB1, figure1::kC1, at};
  return event;
}

/// Publishes trickle events (ignoring failures) until `done` or deadline.
template <typename Done>
bool TrickleUntil(net::FanoutCluster* broker, Done done, int deadline_ms,
                  Timestamp* at) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    (void)broker->Publish(Tick(++*at));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

std::vector<LogEvent> EventsOfType(const EventLog& journal,
                                   const std::string& type) {
  std::vector<LogEvent> out;
  for (const LogEvent& event : journal.Recent()) {
    if (event.type == type) out.push_back(event);
  }
  return out;
}

std::string FieldOf(const LogEvent& event, const std::string& key) {
  for (const LogEvent::Field& field : event.fields) {
    if (field.key == key) return field.value;
  }
  return "";
}

/// Threads in this process right now (/proc/self/task entries).
long CountThreads() {
  long count = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') count++;
    }
    ::closedir(dir);
  }
  return count;
}

/// CountThreads once /proc/self/task stops shrinking: a thread joined just
/// before can stay listed for a moment after its join returns. Waits at most
/// about a second.
long SettledThreadCount() {
  long count = CountThreads();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const long now = CountThreads();
    if (now >= count) return now;
    count = now;
  }
  return count;
}

TEST(HealthAutopilotTest, FlipsToQuorumOnDeathAndBackAfterRecovery) {
  Group g = StartGroup(figure1::FollowGraph(), 4, /*replicas=*/1, /*k=*/2,
                       MonitoredOptions());
  ASSERT_TRUE(g.broker->Ping().ok());
  EXPECT_EQ(g.broker->active_policy(), FanoutPolicy::kStrict);
  ASSERT_NE(g.broker->journal(), nullptr);

  Timestamp at = 1;
  // Healthy group: publishes succeed, health report is all-healthy once
  // the monitor has ticked.
  ASSERT_TRUE(g.broker->Publish(Tick(++at)).ok());
  ASSERT_TRUE(TrickleUntil(
      g.broker.get(),
      [&] {
        auto report = g.broker->GetHealth();
        return report.ok() && report->Find("p2") != nullptr;
      },
      /*deadline_ms=*/5'000, &at))
      << "monitor never produced a report";

  // Kill p2 mid-stream. The broker discovers the death on the next
  // publish, the next evaluation flips the policy, and publishes keep
  // succeeding under quorum with p2's share parked for replay.
  const uint16_t dead_port = g.daemons[2].server->port();
  g.daemons[2].server->Stop();
  ASSERT_TRUE(TrickleUntil(
      g.broker.get(),
      [&] { return g.broker->active_policy() == FanoutPolicy::kQuorum; },
      /*deadline_ms=*/20'000, &at))
      << "autopilot never flipped to quorum";
  ASSERT_TRUE(g.broker->Publish(Tick(++at)).ok())
      << "post-flip publish must succeed under quorum";

  // The health surface agrees everywhere: the broker's own report, the
  // gauge encoding on the scrape surface, and the policy gauge.
  auto report = g.broker->GetHealth();
  ASSERT_TRUE(report.ok()) << report.status();
  const PartyHealth* p2 = report->Find("p2");
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p2->state, HealthState::kHealthy);
  EXPECT_NE(p2->reason, HealthReason::kNone);
  auto text = g.broker->GetStatsText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("health{party=\"p2\"}"), std::string::npos) << *text;
  EXPECT_NE(text->find("gauge broker_policy 1\n"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("counter broker_policy_flips 1\n"), std::string::npos)
      << *text;

  // The journal recorded the worsening transition and the flip, with the
  // triggering party and window values.
  const std::vector<LogEvent> worsened =
      EventsOfType(*g.broker->journal(), "health_transition");
  ASSERT_FALSE(worsened.empty());
  bool saw_p2_worsen = false;
  for (const LogEvent& event : worsened) {
    if (FieldOf(event, "party") == "p2" &&
        FieldOf(event, "from") == "healthy") {
      saw_p2_worsen = true;
      EXPECT_NE(FieldOf(event, "reason"), "");
      EXPECT_NE(FieldOf(event, "reason"), "none");
    }
  }
  EXPECT_TRUE(saw_p2_worsen) << "no journaled p2 health transition";
  std::vector<LogEvent> flips =
      EventsOfType(*g.broker->journal(), "policy_flip");
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(FieldOf(flips[0], "from"), "strict");
  EXPECT_EQ(FieldOf(flips[0], "to"), "quorum");
  EXPECT_EQ(FieldOf(flips[0], "trigger_party"), "p2");
  EXPECT_NE(FieldOf(flips[0], "detail"), "") << "flip carries no evidence";

  // Revive p2 on its old port (same hosted transport, same trace party —
  // exactly how a restarted magicrecsd comes back). The autopilot must
  // flush the replay backlog, watch p2 stay clean through dwell, and flip
  // back to strict.
  {
    RpcServerOptions ropt;
    ropt.port = dead_port;
    auto revived = RpcServer::Start(g.daemons[2].hosted.get(), ropt);
    ASSERT_TRUE(revived.ok()) << revived.status();
    g.daemons[2].server = std::move(revived).value();
  }
  ASSERT_TRUE(TrickleUntil(
      g.broker.get(),
      [&] { return g.broker->active_policy() == FanoutPolicy::kStrict; },
      /*deadline_ms=*/20'000, &at))
      << "autopilot never flipped back after recovery";
  ASSERT_TRUE(g.broker->Publish(Tick(++at)).ok());

  // Journal: p2 recovered (dwell satisfied), and the flip-back rode it.
  flips = EventsOfType(*g.broker->journal(), "policy_flip");
  ASSERT_EQ(flips.size(), 2u);
  EXPECT_EQ(FieldOf(flips[1], "from"), "quorum");
  EXPECT_EQ(FieldOf(flips[1], "to"), "strict");
  bool saw_p2_recover = false;
  for (const LogEvent& event :
       EventsOfType(*g.broker->journal(), "health_transition")) {
    if (FieldOf(event, "party") == "p2" &&
        FieldOf(event, "to") == "healthy") {
      saw_p2_recover = true;
      EXPECT_EQ(FieldOf(event, "reason"), "recovered");
    }
  }
  EXPECT_TRUE(saw_p2_recover) << "no journaled p2 recovery";

  EXPECT_TRUE(g.broker->Close().ok());
}

TEST(HealthAutopilotTest, PinnedPolicyObservesButNeverFlips) {
  FanoutClusterOptions fopt = MonitoredOptions(FanoutPolicy::kStrict);
  Group g = StartGroup(figure1::FollowGraph(), 2, /*replicas=*/1, /*k=*/2,
                       fopt);
  ASSERT_TRUE(g.broker->Ping().ok());

  g.daemons[1].server->Stop();
  Timestamp at = 1;
  // Give the autopilot ample opportunity to (wrongly) flip: trickle until
  // the health engine has seen the death, then a little longer.
  ASSERT_TRUE(TrickleUntil(
      g.broker.get(),
      [&] {
        auto report = g.broker->GetHealth();
        const PartyHealth* p1 = report.ok() ? report->Find("p1") : nullptr;
        return p1 != nullptr && p1->state != HealthState::kHealthy;
      },
      /*deadline_ms=*/20'000, &at))
      << "health engine never saw the death";
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(g.broker->active_policy(), FanoutPolicy::kStrict)
      << "pinned policy must never flip";
  EXPECT_TRUE(EventsOfType(*g.broker->journal(), "policy_flip").empty());
  // Strict + dead daemon: publishes fail — pinning means the operator
  // chose that failure mode on purpose.
  EXPECT_FALSE(g.broker->Publish(Tick(++at)).ok());
  EXPECT_TRUE(g.broker->Close().ok());
}

TEST(HealthAutopilotTest, ConfiguredQuorumScoresAndJournalsButNeverFlips) {
  FanoutClusterOptions fopt = MonitoredOptions(FanoutPolicy::kQuorum);
  fopt.gather_quorum = 1;
  Group g = StartGroup(figure1::FollowGraph(), 2, /*replicas=*/1, /*k=*/2,
                       fopt);
  ASSERT_TRUE(g.broker->Ping().ok());
  // Let the monitor evaluate a healthy group first: a flip-back-to-strict
  // rule applied to a configured policy would fire here.
  Timestamp at = 1;
  ASSERT_TRUE(TrickleUntil(
      g.broker.get(),
      [&] {
        auto report = g.broker->GetHealth();
        return report.ok() && report->Find("p1") != nullptr;
      },
      /*deadline_ms=*/5'000, &at))
      << "monitor never produced a report";
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(g.broker->active_policy(), FanoutPolicy::kQuorum);

  g.daemons[1].server->Stop();
  ASSERT_TRUE(TrickleUntil(
      g.broker.get(),
      [&] {
        auto report = g.broker->GetHealth();
        const PartyHealth* p1 = report.ok() ? report->Find("p1") : nullptr;
        return p1 != nullptr && p1->state != HealthState::kHealthy;
      },
      /*deadline_ms=*/20'000, &at))
      << "health engine never saw the death";
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Scored and journaled like any monitored broker...
  bool saw_p1_worsen = false;
  for (const LogEvent& event :
       EventsOfType(*g.broker->journal(), "health_transition")) {
    saw_p1_worsen = saw_p1_worsen || (FieldOf(event, "party") == "p1" &&
                                      FieldOf(event, "from") == "healthy");
  }
  EXPECT_TRUE(saw_p1_worsen) << "no journaled p1 health transition";
  // ...but the configured policy is the active one, before and after.
  EXPECT_EQ(g.broker->active_policy(), FanoutPolicy::kQuorum);
  EXPECT_TRUE(EventsOfType(*g.broker->journal(), "policy_flip").empty());
  EXPECT_TRUE(g.broker->Publish(Tick(++at)).ok())
      << "quorum keeps publishing with one daemon down";
  EXPECT_TRUE(g.broker->Close().ok());
}

TEST(HealthAutopilotTest, ZeroIntervalRunsNoMonitorAndNoJournal) {
  // Connections are lazy, so the monitor is the only thread Connect can
  // start: none at interval 0, one at interval 25 (the control that shows
  // the count sees it). No daemon is ever dialed.
  FanoutClusterOptions fopt;
  fopt.endpoints.resize(2);
  fopt.endpoints[0].partition = 0;
  fopt.endpoints[1].partition = 1;
  const long before = SettledThreadCount();
  auto unmonitored = net::FanoutCluster::Connect(fopt);
  ASSERT_TRUE(unmonitored.ok()) << unmonitored.status();
  EXPECT_EQ(CountThreads(), before);
  EXPECT_EQ((*unmonitored)->journal(), nullptr);
  auto report = (*unmonitored)->GetHealth();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->parties.empty());

  fopt.health_interval_ms = 25;
  auto monitored = net::FanoutCluster::Connect(fopt);
  ASSERT_TRUE(monitored.ok()) << monitored.status();
  EXPECT_EQ(CountThreads(), before + 1);
  EXPECT_NE((*monitored)->journal(), nullptr);
}

}  // namespace
}  // namespace magicrecs
