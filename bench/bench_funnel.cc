// Experiment T8 — "Each day, billions of raw candidates are generated,
// yielding millions of push notifications (after eliminating duplicates,
// suppressing messages during non-waking hours, controlling for fatigue,
// etc.)" — a reduction on the order of 10^3.
//
// Runs a bursty stream through detection and the full delivery pipeline and
// reports the funnel stage-by-stage.

#include <cstdio>

#include "workload.h"
#include "delivery/pipeline.h"
#include "util/str_format.h"

using namespace magicrecs;
using bench::MakeWorkload;
using bench::Workload;
using bench::WorkloadConfig;

int main() {
  std::printf("=== T8: delivery funnel (paper: billions of candidates -> "
              "millions of pushes) ===\n\n");
  WorkloadConfig config;
  config.num_users = 15'000;
  config.num_events = 60'000;
  config.events_per_second = 100;
  config.burst_fraction = 0.4;
  config.start_time = Hours(12);
  config.seed = 8;
  const Workload w = MakeWorkload(config);

  DiamondOptions dopt;
  dopt.k = 3;
  dopt.window = Minutes(10);
  dopt.max_reported_witnesses = 0;
  const auto engine = bench::DiamondEngine(w.follower_index, dopt);

  DeliveryPipeline pipeline;
  std::vector<Recommendation> recs;
  uint64_t by_outcome[4] = {0, 0, 0, 0};
  for (const TimestampedEdge& e : w.events) {
    recs.clear();
    if (!engine->OnEdge(e.src, e.dst, e.created_at, &recs).ok()) return 1;
    for (const Recommendation& rec : recs) {
      const DeliveryOutcome outcome =
          pipeline.Process(rec, e.created_at, nullptr);
      ++by_outcome[static_cast<int>(outcome)];
    }
  }

  const FunnelStats& funnel = pipeline.funnel();
  std::printf("%-28s %16s %10s\n", "stage", "count", "of raw");
  const auto PrintStage = [&](const char* stage, uint64_t count) {
    std::printf("%-28s %16s %9.2f%%\n", stage,
                CommaSeparated(count).c_str(),
                100.0 * static_cast<double>(count) /
                    static_cast<double>(funnel.raw_candidates));
  };
  PrintStage("raw candidates", funnel.raw_candidates);
  PrintStage("after dedup", funnel.after_dedup);
  PrintStage("after quiet hours", funnel.after_quiet_hours);
  PrintStage("delivered (pushes)", funnel.delivered);

  std::printf("\ndropped by: duplicates %s, quiet hours %s, fatigue %s\n",
              CommaSeparated(by_outcome[1]).c_str(),
              CommaSeparated(by_outcome[2]).c_str(),
              CommaSeparated(by_outcome[3]).c_str());
  std::printf("\nreduction factor: %.0fx (paper's 'billions -> millions' is "
              "~1000x)\n",
              funnel.ReductionFactor());
  const bool shape = funnel.ReductionFactor() > 50;
  std::printf("shape check (reduction >= 50x on this workload): %s\n",
              shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}
