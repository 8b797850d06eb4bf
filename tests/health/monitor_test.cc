// HealthMonitor's rate window, and a daemon's self-health verdict end to
// end. CounterWindow rates the counters a monitor scores over the trailing
// window: the base is the oldest point inside the window but never the
// newest, the rate divides by the time actually elapsed, and the window
// spans its full length at any tick cadence.

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../net/raw_session.h"
#include "cluster/cluster.h"
#include "gen/figure1.h"
#include "health/health_monitor.h"
#include "net/rpc_server.h"
#include "util/clock.h"
#include "util/event_log.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

// Seconds in microseconds, to keep the window math readable.
constexpr int64_t kSec = 1'000'000;

TEST(CounterWindowTest, RateNeedsTwoPoints) {
  Counter events;
  CounterWindow window({&events}, 10 * kSec);
  EXPECT_EQ(window.Rate(0), 0);
  events.Increment(5);
  window.Sample(1 * kSec);
  EXPECT_EQ(window.Rate(0), 0);
  events.Increment(5);
  window.Sample(2 * kSec);
  EXPECT_DOUBLE_EQ(window.Rate(0), 5.0);
}

TEST(CounterWindowTest, RateOverTheWindowPerCounter) {
  Counter events;
  Counter errors;
  CounterWindow five({&events, &errors}, 5 * kSec);
  CounterWindow sixty({&events, &errors}, 60 * kSec);
  const auto sample = [&](uint64_t to_events, int64_t at_us) {
    events.Increment(to_events - events.Value());
    errors.Increment();
    five.Sample(at_us);
    sixty.Sample(at_us);
  };
  sample(100, 0);
  sample(150, 5 * kSec);
  sample(400, 10 * kSec);
  // A 5s window bases at the t=5s point: 400 - 150 over 5 elapsed seconds.
  EXPECT_DOUBLE_EQ(five.Rate(0), 50.0);
  EXPECT_DOUBLE_EQ(five.Rate(1), 0.2);
  // A window spanning everything bases at the oldest point.
  EXPECT_DOUBLE_EQ(sixty.Rate(0), 30.0);
  EXPECT_DOUBLE_EQ(sixty.Rate(1), 0.2);
}

TEST(CounterWindowTest, RateUsesActualElapsedNotNominalWindow) {
  Counter events;
  CounterWindow window({&events}, 10 * kSec);
  // Points 2s apart but rated over a 10s window: the rate must divide by
  // the real 2s span, not the nominal 10.
  window.Sample(0);
  events.Increment(20);
  window.Sample(2 * kSec);
  EXPECT_DOUBLE_EQ(window.Rate(0), 10.0);
}

TEST(CounterWindowTest, TightWindowStillSpansTwoPoints) {
  Counter events;
  CounterWindow window({&events}, 1 * kSec);
  window.Sample(0);
  events.Increment(10);
  window.Sample(10 * kSec);
  // The 1s window holds only the newest point; the base steps back to the
  // nearest older point so the rate still comes from two points.
  EXPECT_DOUBLE_EQ(window.Rate(0), 1.0);
  EXPECT_EQ(window.points(), 2u);
}

TEST(CounterWindowTest, HoldsOnlyTheWindow) {
  Counter events;
  CounterWindow window({&events}, 10 * kSec);
  for (int64_t at = 0; at <= 60 * kSec; at += 50'000) window.Sample(at);
  // 10s of 50ms ticks, both ends included.
  EXPECT_EQ(window.points(), 201u);
}

// At a 50 ms cadence the window still spans 10 s, 201 points: an error
// 7.5 s ago is still counted, and it leaves once the window no longer
// reaches the point before it.
TEST(HealthMonitorTest, FiftyMsTicksRateOverTheWholeWindow) {
  MetricsRegistry registry;
  Counter* errors = registry.GetCounter("rpc_protocol_errors");
  SimulatedClock clock;
  double rate = -1;
  HealthMonitor monitor(
      &registry, /*journal=*/nullptr, {errors},
      [&rate](std::span<const double> rates, HealthInputs*) {
        rate = rates[0];
      },
      /*interval_ms=*/3'600'000, /*observer=*/nullptr, &clock);
  constexpr int64_t kTick = 50'000;
  const auto run_for = [&](int64_t span_us) {
    for (int64_t t = 0; t < span_us; t += kTick) {
      clock.Advance(kTick);
      monitor.EvaluateNow();
    }
  };

  run_for(20 * kSec);
  EXPECT_EQ(rate, 0);
  errors->Increment();
  run_for(7'500'000);
  EXPECT_DOUBLE_EQ(rate, 0.1);  // one error over the 10 s window
  run_for(2'500'000);
  EXPECT_DOUBLE_EQ(rate, 0.1);  // the window still reaches the point before it
  run_for(kTick);
  EXPECT_EQ(rate, 0);
}

/// True once `journal` holds a health_transition whose reason is `reason`.
bool JournaledTransition(const EventLog& journal, const std::string& reason) {
  for (const LogEvent& event : journal.Recent()) {
    if (event.type != "health_transition") continue;
    for (const LogEvent::Field& field : event.fields) {
      if (field.key == "reason" && field.value == reason) return true;
    }
  }
  return false;
}

// A daemon rates its own rpc_protocol_errors: frames with a bad CRC move
// its health gauge off healthy and journal why.
TEST(DaemonSelfHealthTest, BadCrcFramesDegradeTheDaemon) {
  ClusterOptions options;
  options.num_partitions = 2;
  options.detector.k = 2;
  options.detector.window = Minutes(10);
  auto hosted = Cluster::Create(figure1::FollowGraph(), options);
  ASSERT_TRUE(hosted.ok()) << hosted.status();
  ASSERT_TRUE((*hosted)->Start().ok());

  EventLog journal;
  net::RpcServerOptions server_options;
  server_options.health_interval_ms = 10;
  server_options.event_journal = &journal;
  auto server = net::RpcServer::Start(hosted->get(), server_options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();
  const std::string party = StrFormat("127.0.0.1:%u", port);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto wait_until = [&deadline](const auto& done) {
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  // The window rates from its first point on, so let the monitor take one
  // (it publishes the party's gauge) before any error counts.
  wait_until([&party] {
    return MetricsRegistry::Default()->RenderText().find(
               "gauge health{party=\"" + party + "\"}") != std::string::npos;
  });

  for (int i = 0; i < 4; ++i) {
    auto session = net_test::RawSession::Open(port);
    ASSERT_TRUE(session.ok()) << session.status();
    std::string frame =
        net_test::MuxWrap(1, net_test::EmptyRequest(net::MessageTag::kPing));
    frame.back() ^= 0x01;  // corrupt the inner tag after the CRC was computed
    ASSERT_TRUE(session->Write(frame).ok());
    net::Frame reply;
    ASSERT_TRUE(session->Read(&reply).ok());
    EXPECT_EQ(reply.tag, net::MessageTag::kError);
  }

  const Gauge* health =
      MetricsRegistry::Default()->GetGauge("health", {{"party", party}});
  wait_until([&] {
    return health->Value() != 0 &&
           JournaledTransition(journal, "protocol-errors");
  });
  EXPECT_NE(health->Value(), 0);
  EXPECT_TRUE(JournaledTransition(journal, "protocol-errors"));
  (*server)->Stop();
}

}  // namespace
}  // namespace magicrecs
