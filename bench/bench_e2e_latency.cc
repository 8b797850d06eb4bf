// Experiment T3 — "median latency of 7s and p99 latency of 15s, measured
// from the edge creation event to the delivery of the recommendation.
// Nearly all the latency comes from event propagation delays in various
// message queues; the actual graph queries take only a few milliseconds."
//
// The calibrated log-normal queue model injects propagation delays in
// virtual time; the graph query runs for real on each delivery. We report
// the same decomposition the paper gives.

#include <cstdio>

#include "bench_json.h"
#include "workload.h"
#include "stream/delay_model.h"
#include "stream/latency_tracker.h"
#include "stream/simulator.h"
#include "util/clock.h"

using namespace magicrecs;
using bench::MakeWorkload;
using bench::Workload;
using bench::WorkloadConfig;

int main() {
  std::printf("=== T3: end-to-end latency decomposition (paper: median 7s, "
              "p99 15s) ===\n\n");

  WorkloadConfig config;
  config.num_users = 20'000;
  config.num_events = 30'000;
  config.seed = 3;
  const Workload w = MakeWorkload(config);

  DiamondOptions opt;
  opt.k = 3;
  opt.window = Minutes(10);
  opt.max_reported_witnesses = 0;  // contents unused; skip materialization
  const auto engine = bench::DiamondEngine(w.follower_index, opt);

  SimulatedClock clock;
  VirtualTimeSimulator simulator(&clock);
  Rng rng(4);
  auto queue_model = MakeTwitterCalibratedDelayModel();
  simulator.ScheduleStream(w.events, ActionType::kFollow, *queue_model, &rng);

  LatencyTracker latency;
  std::vector<Recommendation> recs;
  uint64_t candidates = 0;
  simulator.Run([&](const EdgeEvent& event, Timestamp deliver_time) {
    const Duration queue_delay = deliver_time - event.edge.created_at;
    latency.RecordQueueDelay(queue_delay);
    const Stopwatch query_timer;
    recs.clear();
    if (!engine->OnEdge(event.edge.src, event.edge.dst, event.edge.created_at,
                        &recs)
             .ok()) {
      return;
    }
    const Duration query_latency = query_timer.ElapsedMicros();
    latency.RecordQueryLatency(query_latency);
    // Every raw candidate's end-to-end latency: queue propagation + query
    // (virtual time carries the queue part; the query part is real).
    for (size_t i = 0; i < recs.size(); ++i) {
      latency.RecordEndToEnd(queue_delay + query_latency);
    }
    candidates += recs.size();
  });

  std::printf("events: %zu, raw candidates: %llu\n\n", w.events.size(),
              static_cast<unsigned long long>(candidates));
  std::printf("%s\n\n", latency.ToString().c_str());

  const double p50 = latency.end_to_end().Median() / 1e6;
  const double p99 = latency.end_to_end().Percentile(99) / 1e6;
  const double query_p99_ms =
      latency.query_latency().Percentile(99) / 1e3;
  std::printf("paper:    median 7.00s   p99 15.00s   (queries: few ms)\n");
  std::printf("measured: median %.2fs   p99 %.2fs   (query p99: %.3fms)\n",
              p50, p99, query_p99_ms);
  std::printf("queue share of end-to-end at the median: %.3f%%\n",
              100.0 * latency.queue_delay().Median() /
                  latency.end_to_end().Median());

  // Per-stage rows into the shared bench artifact, next to bench_net's
  // wire-trace decomposition (MergeWrite preserves its sections).
  bench::JsonRows json;
  json.AddStage("e2e-stages", "simulated", "queue-delay",
                latency.queue_delay());
  json.AddStage("e2e-stages", "simulated", "graph-query",
                latency.query_latency());
  json.AddStage("e2e-stages", "simulated", "end-to-end",
                latency.end_to_end());
  json.MergeWrite("BENCH_net.json");

  const bool shape_holds = p50 > 6.0 && p50 < 8.0 && p99 > 13.0 && p99 < 17.5;
  std::printf("\nshape check (median in [6,8]s, p99 in [13,17.5]s): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
