// Experiment T-health — cost of the observability/health plumbing.
//
// A health monitor (broker or daemon, on whenever its health_interval_ms
// is > 0) rides the scrape path: every tick its thread samples the few
// counters it scores into a CounterWindow, rates them over the trailing
// 10s, runs the rule engine over every party, and journals transitions.
// All of that must stay far below the evaluation interval (the chaos drill
// runs 50 ms) even for wide groups, or the monitor starts stealing the CPU
// it is meant to watch. Four rows, all section "health" in BENCH_net.json:
//
//   sample      — CounterWindow::Sample over 64 counters (ops/s; one op =
//                 one point appended)
//   rate        — CounterWindow::Rate of one counter over a window of 64
//                 points (ops/s)
//   evaluate    — HealthEngine::Evaluate with 32 parties (ops/s)
//   journal     — EventLog::Append to a real file (ops/s)

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_json.h"
#include "health/health_engine.h"
#include "health/health_monitor.h"
#include "util/clock.h"
#include "util/event_log.h"
#include "util/metrics.h"

using namespace magicrecs;

namespace {

namespace fs = std::filesystem;

constexpr size_t kCounters = 64;

/// 64 counters, far more than any monitor watches (a daemon scores 3, a
/// broker 2), so one sample costs at least a real monitor's.
std::vector<const Counter*> Counters(MetricsRegistry* registry) {
  std::vector<const Counter*> counters;
  for (size_t i = 0; i < kCounters; ++i) {
    Counter* counter = registry->GetCounter(
        "rpc_requests_served", {{"server", StrFormat("%zu", i)}});
    counter->Increment(1000 + i);
    counters.push_back(counter);
  }
  return counters;
}

double SampleOpsPerSec(MetricsRegistry* registry, size_t iters) {
  // One point per "second" into a 10s window: the steady state of a
  // monitor, which appends one point and drops one per tick.
  CounterWindow window(Counters(registry), 10'000'000);
  Stopwatch timer;
  for (size_t i = 0; i < iters; ++i) {
    window.Sample(static_cast<int64_t>(i) * 1'000'000);
  }
  return static_cast<double>(iters) / timer.ElapsedSeconds();
}

double RateOpsPerSec(MetricsRegistry* registry, size_t iters) {
  Counter* counter = registry->GetCounter("rate_probe");
  // 64 points, one per "second", all inside a 64s window.
  CounterWindow window({counter}, 64'000'000);
  for (int i = 0; i < 64; ++i) {
    counter->Increment(10);
    window.Sample(static_cast<int64_t>(i) * 1'000'000);
  }
  double sink = 0;
  Stopwatch timer;
  for (size_t i = 0; i < iters; ++i) sink += window.Rate(0);
  const double per_sec = static_cast<double>(iters) / timer.ElapsedSeconds();
  if (sink < 0) std::printf("unreachable %f\n", sink);  // defeat DCE
  return per_sec;
}

double EvaluateOpsPerSec(size_t parties, size_t iters) {
  HealthEngine engine;
  HealthInputs inputs;
  for (size_t p = 0; p < parties; ++p) {
    HealthInputs::Party party;
    party.name = StrFormat("p%zu", p);
    // A mix of states so the rule walk is not all-healthy short-circuit:
    // every 8th party has a filling replay buffer, every 16th is slow.
    party.replay_capacity = 65'536;
    if (p % 8 == 0) party.replay_events = 30'000;
    if (p % 16 == 0) party.slow_request_rate_per_s = 9.0;
    inputs.parties.push_back(party);
  }
  std::vector<HealthTransition> transitions;
  Stopwatch timer;
  for (size_t i = 0; i < iters; ++i) {
    transitions.clear();
    engine.Evaluate(inputs, static_cast<int64_t>(i + 1) * 250'000,
                    &transitions);
  }
  return static_cast<double>(iters) / timer.ElapsedSeconds();
}

double JournalOpsPerSec(const std::string& path, size_t iters) {
  EventLog journal(path);
  Stopwatch timer;
  for (size_t i = 0; i < iters; ++i) {
    journal.Append(static_cast<int64_t>(i), "health_transition",
                   {LogEvent::Str("party", "p3"),
                    LogEvent::Str("from", "healthy"),
                    LogEvent::Str("to", "degraded"),
                    LogEvent::Str("reason", "replay-backlog"),
                    LogEvent::Str("detail", "replay_events=30000/65536")});
  }
  const double per_sec = static_cast<double>(iters) / timer.ElapsedSeconds();
  if (journal.write_failures() != 0) {
    std::fprintf(stderr, "journal writes failed (%llu)\n",
                 static_cast<unsigned long long>(journal.write_failures()));
    std::exit(1);
  }
  return per_sec;
}

}  // namespace

int main() {
  MetricsRegistry registry;

  bench::JsonRows rows;
  std::printf("T-health: observability plumbing cost\n");
  std::printf("%-10s %14s\n", "op", "ops/s");

  const double sample = SampleOpsPerSec(&registry, 20'000);
  std::printf("%-10s %14.0f\n", "sample", sample);
  rows.AddThroughput("health", "sample", kCounters, sample, 0);

  const double rate = RateOpsPerSec(&registry, 200'000);
  std::printf("%-10s %14.0f\n", "rate", rate);
  rows.AddThroughput("health", "rate", 64, rate, 0);

  const double evaluate = EvaluateOpsPerSec(/*parties=*/32, 50'000);
  std::printf("%-10s %14.0f\n", "evaluate", evaluate);
  rows.AddThroughput("health", "evaluate", 32, evaluate, 0);

  const fs::path dir =
      fs::temp_directory_path() /
      StrFormat("bench_health_%d", static_cast<int>(::getpid()));
  fs::create_directories(dir);
  const double journal =
      JournalOpsPerSec((dir / "journal.jsonl").string(), 50'000);
  std::printf("%-10s %14.0f\n", "journal", journal);
  rows.AddThroughput("health", "journal", 1, journal, 0);
  fs::remove_all(dir);

  rows.MergeWrite("BENCH_net.json");
  return 0;
}
