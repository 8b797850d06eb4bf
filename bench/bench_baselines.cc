// Experiment T4 — the two designs the paper "ruled out" (§2):
//   (a) polling each user's network periodically — "the latency would be
//       unacceptably large";
//   (b) tracking each A's two-hop neighborhood — "impractical, even using
//       approximate data structures such as Bloom filters".
//
// All three designs run on the same workload. Reported: detection latency,
// per-event cost, and memory, against the online detector.

#include <cstdio>

#include "baseline/polling_detector.h"
#include "baseline/twohop_tracker.h"
#include "workload.h"
#include "util/clock.h"
#include "util/str_format.h"

using namespace magicrecs;
using bench::MakeWorkload;
using bench::Workload;
using bench::WorkloadConfig;

namespace {

constexpr uint32_t kK = 3;
constexpr Duration kWindow = Minutes(10);

struct Row {
  const char* name;
  double detection_latency_p50_s = 0;
  double detection_latency_p99_s = 0;
  double per_event_cost_us = 0;
  size_t memory = 0;
  uint64_t emitted = 0;
};

void Print(const Row& row) {
  std::printf("%-22s %14.3f %14.3f %16.2f %12s %12s\n", row.name,
              row.detection_latency_p50_s, row.detection_latency_p99_s,
              row.per_event_cost_us, HumanBytes(row.memory).c_str(),
              HumanCount(static_cast<double>(row.emitted)).c_str());
}

}  // namespace

int main() {
  std::printf("=== T4: rejected designs vs the online detector (k=%u, "
              "window=10m) ===\n\n",
              kK);
  WorkloadConfig config;
  config.num_users = 10'000;
  config.num_events = 30'000;
  config.events_per_second = 200;
  config.seed = 4;
  const Workload w = MakeWorkload(config);
  std::printf("workload: %u users, %zu events over %.0fs of stream time\n\n",
              config.num_users, w.events.size(),
              ToSeconds(w.events.back().created_at -
                        w.events.front().created_at));

  std::printf("%-22s %14s %14s %16s %12s %12s\n", "design",
              "det p50 (s)", "det p99 (s)", "cost/event (us)", "memory",
              "emitted");

  // --- online (this paper) ---------------------------------------------------
  {
    DiamondOptions opt;
    opt.k = kK;
    opt.window = kWindow;
    opt.max_reported_witnesses = 0;
    const auto engine = bench::DiamondEngine(w.follower_index, opt);
    std::vector<Recommendation> recs;
    Histogram latency_us;
    Stopwatch timer;
    uint64_t emitted = 0;
    for (const TimestampedEdge& e : w.events) {
      recs.clear();
      if (!bench::TimedOnEdge(*engine, e, &recs, &latency_us).ok()) return 1;
      emitted += recs.size();
    }
    Row row;
    row.name = "online (paper)";
    // Detection is synchronous with the trigger edge: latency == query time.
    row.detection_latency_p50_s = latency_us.Median() / 1e6;
    row.detection_latency_p99_s = latency_us.Percentile(99) / 1e6;
    row.per_event_cost_us = static_cast<double>(timer.ElapsedMicros()) /
                            static_cast<double>(w.events.size());
    row.memory = engine->DynamicMemoryUsage();
    row.emitted = emitted;
    Print(row);
  }

  // --- (a) polling -------------------------------------------------------------
  for (const Duration interval : {Seconds(30), Minutes(2)}) {
    PollingOptions opt;
    opt.k = kK;
    opt.window = kWindow;
    opt.poll_interval = interval;
    PollingDetector detector(&w.follow_graph, &w.follower_index, opt);
    std::vector<Recommendation> recs;
    Stopwatch timer;
    Timestamp next_poll = w.events.front().created_at + interval;
    for (const TimestampedEdge& e : w.events) {
      while (e.created_at >= next_poll) {
        if (!detector.Poll(next_poll, &recs).ok()) return 1;
        next_poll += interval;
      }
      if (!detector.FeedEdge(e.src, e.dst, e.created_at).ok()) return 1;
    }
    Row row;
    static std::string names[2];
    static int idx = 0;
    names[idx] = StrFormat("polling @ %llds",
                           static_cast<long long>(interval / kMicrosPerSecond));
    row.name = names[idx].c_str();
    idx = (idx + 1) % 2;
    row.detection_latency_p50_s =
        detector.stats().detection_latency_micros.Median() / 1e6;
    row.detection_latency_p99_s =
        detector.stats().detection_latency_micros.Percentile(99) / 1e6;
    row.per_event_cost_us = static_cast<double>(timer.ElapsedMicros()) /
                            static_cast<double>(w.events.size());
    row.memory = 0;  // same D-equivalent log as online; dominated by polls
    row.emitted = detector.stats().emitted;
    Print(row);
  }

  // --- (b) two-hop materialization --------------------------------------------
  for (const auto mode :
       {TwoHopOptions::Mode::kExact, TwoHopOptions::Mode::kApproximate}) {
    TwoHopOptions opt;
    opt.k = kK;
    opt.window = kWindow;
    opt.mode = mode;
    opt.counters_per_user = 256;
    TwoHopTracker tracker(&w.follower_index, opt);
    std::vector<Recommendation> recs;
    Stopwatch timer;
    uint64_t emitted = 0;
    for (const TimestampedEdge& e : w.events) {
      recs.clear();
      if (!tracker.OnEdge(e.src, e.dst, e.created_at, &recs).ok()) return 1;
      emitted += recs.size();
    }
    Row row;
    row.name = mode == TwoHopOptions::Mode::kExact ? "two-hop (exact)"
                                                   : "two-hop (bloom-style)";
    // Detection is immediate (update-driven), like online.
    row.detection_latency_p50_s = 0;
    row.detection_latency_p99_s = 0;
    row.per_event_cost_us = static_cast<double>(timer.ElapsedMicros()) /
                            static_cast<double>(w.events.size());
    row.memory = tracker.MemoryUsage();
    row.emitted = emitted;
    Print(row);
    std::printf("%-22s   write amplification %.1fx (counter updates per "
                "stream edge)\n",
                "", tracker.stats().WriteAmplification());
  }

  std::printf(
      "\nshape checks:\n"
      "  polling detection latency ~ interval/2, i.e. seconds-to-minutes vs\n"
      "  the online detector's microseconds -> 'latency unacceptably large'.\n"
      "  two-hop memory and write amplification grow with follower fan-out\n"
      "  -> 'impractical, even using approximate data structures'.\n");
  return 0;
}
