#include "health/health_engine.h"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace magicrecs {
namespace {

constexpr int64_t kSec = 1'000'000;

HealthInputs OneParty(const HealthInputs::Party& party) {
  HealthInputs inputs;
  inputs.parties.push_back(party);
  return inputs;
}

HealthInputs::Party Healthy(const std::string& name) {
  HealthInputs::Party p;
  p.name = name;
  return p;
}

TEST(ClassifyTest, HealthyByDefault) {
  HealthState state;
  HealthReason reason;
  std::string detail;
  HealthEngine::Classify({}, Healthy("p0"), &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kHealthy);
  EXPECT_EQ(reason, HealthReason::kNone);
  EXPECT_TRUE(detail.empty());
}

TEST(ClassifyTest, UnreachableIsDegraded) {
  HealthInputs::Party p = Healthy("p0");
  p.unreachable = true;
  HealthState state;
  HealthReason reason;
  std::string detail;
  HealthEngine::Classify({}, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kDegraded);
  EXPECT_EQ(reason, HealthReason::kDaemonUnreachable);
}

TEST(ClassifyTest, ReplayBacklogEscalatesWithDepth) {
  HealthThresholds t;  // degraded at 25%, critical at 75%
  HealthInputs::Party p = Healthy("p0");
  p.replay_capacity = 1000;
  HealthState state;
  HealthReason reason;
  std::string detail;

  p.replay_events = 100;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kHealthy);

  p.replay_events = 300;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kDegraded);
  EXPECT_EQ(reason, HealthReason::kReplayBacklog);
  // The detail carries the triggering window values for the journal.
  EXPECT_EQ(detail, "replay_events=300/1000 (30%)");

  p.replay_events = 800;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kCritical);
  EXPECT_EQ(reason, HealthReason::kReplayBacklog);
}

TEST(ClassifyTest, ReplayLossIsAlwaysCritical) {
  HealthInputs::Party p = Healthy("broker");
  p.replay_loss_rate_per_s = 0.5;
  HealthState state;
  HealthReason reason;
  std::string detail;
  HealthEngine::Classify({}, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kCritical);
  EXPECT_EQ(reason, HealthReason::kReplayLoss);
}

TEST(ClassifyTest, RateRulesAtBothTiers) {
  HealthThresholds t;
  HealthState state;
  HealthReason reason;
  std::string detail;

  HealthInputs::Party p = Healthy("d");
  p.inflight_stall_rate_per_s = t.degraded_stall_rate_per_s;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kDegraded);
  EXPECT_EQ(reason, HealthReason::kInflightStalls);
  p.inflight_stall_rate_per_s = t.critical_stall_rate_per_s;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kCritical);

  p = Healthy("d");
  p.protocol_error_rate_per_s = t.critical_error_rate_per_s;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kCritical);
  EXPECT_EQ(reason, HealthReason::kProtocolErrors);

  // Slowness alone never goes critical.
  p = Healthy("d");
  p.slow_request_rate_per_s = 1e9;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kDegraded);
  EXPECT_EQ(reason, HealthReason::kSlowRequests);
}

TEST(ClassifyTest, MissedGathersEscalate) {
  HealthThresholds t;  // degraded at 1 consecutive miss, critical at 4
  HealthInputs::Party p = Healthy("p1");
  HealthState state;
  HealthReason reason;
  std::string detail;
  p.gathers_missed_consecutive = 1;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kDegraded);
  EXPECT_EQ(reason, HealthReason::kGatherStaleness);
  p.gathers_missed_consecutive = 4;
  HealthEngine::Classify(t, p, &state, &reason, &detail);
  EXPECT_EQ(state, HealthState::kCritical);
}

TEST(HealthEngineTest, WorseningIsImmediate) {
  HealthEngine engine;
  std::vector<HealthTransition> transitions;
  engine.Evaluate(OneParty(Healthy("p0")), 0, &transitions);
  EXPECT_TRUE(transitions.empty());

  HealthInputs::Party p = Healthy("p0");
  p.unreachable = true;
  const HealthReport report =
      engine.Evaluate(OneParty(p), 1 * kSec, &transitions);
  EXPECT_EQ(report.overall(), HealthState::kDegraded);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].party, "p0");
  EXPECT_EQ(transitions[0].from, HealthState::kHealthy);
  EXPECT_EQ(transitions[0].to, HealthState::kDegraded);
  EXPECT_EQ(transitions[0].reason, HealthReason::kDaemonUnreachable);
  EXPECT_EQ(transitions[0].at_us, 1 * kSec);
}

TEST(HealthEngineTest, RecoveryNeedsDwellAndCleanStreak) {
  HealthThresholds t;
  t.min_dwell_us = 10 * kSec;
  t.recover_evaluations = 2;
  HealthEngine engine(t);

  HealthInputs::Party down = Healthy("p0");
  down.unreachable = true;
  engine.Evaluate(OneParty(down), 0);

  // Clean again, but neither gate is satisfied yet: one clean eval, 1s in.
  std::vector<HealthTransition> transitions;
  HealthReport report =
      engine.Evaluate(OneParty(Healthy("p0")), 1 * kSec, &transitions);
  EXPECT_EQ(report.overall(), HealthState::kDegraded);
  EXPECT_TRUE(transitions.empty());

  // Second clean eval satisfies the streak but not the 10s dwell.
  report = engine.Evaluate(OneParty(Healthy("p0")), 2 * kSec, &transitions);
  EXPECT_EQ(report.overall(), HealthState::kDegraded);
  EXPECT_TRUE(transitions.empty());

  // Third clean eval, past the dwell: recovery lands.
  report = engine.Evaluate(OneParty(Healthy("p0")), 11 * kSec, &transitions);
  EXPECT_EQ(report.overall(), HealthState::kHealthy);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].to, HealthState::kHealthy);
  EXPECT_EQ(transitions[0].reason, HealthReason::kRecovered);
  EXPECT_EQ(transitions[0].detail, "clean for 3 evaluations");
}

TEST(HealthEngineTest, FlappingPartyCannotRecover) {
  HealthThresholds t;
  t.min_dwell_us = 0;  // isolate the streak rule
  t.recover_evaluations = 2;
  HealthEngine engine(t);

  HealthInputs::Party down = Healthy("p0");
  down.unreachable = true;
  engine.Evaluate(OneParty(down), 0);
  // clean, down, clean, down... the streak resets every relapse, so the
  // party stays degraded throughout.
  for (int i = 1; i <= 6; ++i) {
    const HealthReport report = engine.Evaluate(
        OneParty(i % 2 == 1 ? Healthy("p0") : down), i * kSec);
    EXPECT_EQ(report.overall(), HealthState::kDegraded) << "eval " << i;
  }
}

TEST(HealthEngineTest, HeldStateKeepsItsReasonWhileRawIsCleaner) {
  HealthThresholds t;
  t.min_dwell_us = 100 * kSec;
  HealthEngine engine(t);
  HealthInputs::Party down = Healthy("p0");
  down.unreachable = true;
  engine.Evaluate(OneParty(down), 0);
  // Raw says healthy, but the held degraded state must still explain why
  // it is degraded.
  const HealthReport report = engine.Evaluate(OneParty(Healthy("p0")), kSec);
  const PartyHealth* p0 = report.Find("p0");
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(p0->state, HealthState::kDegraded);
  EXPECT_EQ(p0->reason, HealthReason::kDaemonUnreachable);
}

TEST(HealthEngineTest, CriticalToDegradedKeepsRawReason) {
  HealthThresholds t;
  t.min_dwell_us = 0;
  t.recover_evaluations = 1;
  HealthEngine engine(t);
  HealthInputs::Party p = Healthy("p0");
  p.replay_capacity = 100;
  p.replay_events = 90;  // critical
  engine.Evaluate(OneParty(p), 0);
  p.replay_events = 30;  // degraded tier
  std::vector<HealthTransition> transitions;
  const HealthReport report =
      engine.Evaluate(OneParty(p), kSec, &transitions);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].from, HealthState::kCritical);
  EXPECT_EQ(transitions[0].to, HealthState::kDegraded);
  EXPECT_EQ(transitions[0].reason, HealthReason::kReplayBacklog);
  EXPECT_EQ(report.Find("p0")->detail, "replay_events=30/100 (30%)");
}

TEST(HealthEngineTest, AbsentPartiesAreForgotten) {
  HealthThresholds t;
  t.min_dwell_us = 100 * kSec;  // recovery essentially impossible
  HealthEngine engine(t);
  HealthInputs::Party down = Healthy("p0");
  down.unreachable = true;
  engine.Evaluate(OneParty(down), 0);
  // p0 drops out of the inputs (reconfigured group), then returns clean:
  // the old degraded machine must not resurface.
  engine.Evaluate(OneParty(Healthy("p1")), 1 * kSec);
  const HealthReport report =
      engine.Evaluate(OneParty(Healthy("p0")), 2 * kSec);
  EXPECT_EQ(report.Find("p0")->state, HealthState::kHealthy);
}

TEST(HealthEngineTest, LatestMatchesLastEvaluate) {
  HealthEngine engine;
  EXPECT_TRUE(engine.Latest().parties.empty());
  engine.Evaluate(OneParty(Healthy("p0")), 5);
  EXPECT_EQ(engine.Latest().at_us, 5);
  ASSERT_EQ(engine.Latest().parties.size(), 1u);
  EXPECT_EQ(engine.Latest().parties[0].party, "p0");
}

TEST(HealthReportTest, ToStringIsOneLinePerParty) {
  HealthReport report;
  report.parties = {
      PartyHealth{"p0", HealthState::kHealthy, HealthReason::kNone, "", 0},
      PartyHealth{"p2", HealthState::kDegraded,
                  HealthReason::kDaemonUnreachable, "backoff_ms=200", 0}};
  EXPECT_EQ(report.ToString(),
            "p0 healthy none\n"
            "p2 degraded daemon-unreachable (backoff_ms=200)\n");
}

TEST(HealthPartyNameTest, PartitionIdElseHostPort) {
  EXPECT_EQ(HealthPartyName(2, "127.0.0.1", 7421), "p2");
  EXPECT_EQ(HealthPartyName(std::nullopt, "127.0.0.1", 7421),
            "127.0.0.1:7421");
}

}  // namespace
}  // namespace magicrecs
