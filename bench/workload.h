// Shared workload construction for the experiment harnesses: one place to
// configure graph and stream sizes so all experiments run on comparable
// inputs. Everything is seeded and deterministic.

#ifndef MAGICRECS_BENCH_WORKLOAD_H_
#define MAGICRECS_BENCH_WORKLOAD_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/motif_engine.h"
#include "gen/activity_stream.h"
#include "gen/social_graph.h"
#include "graph/static_graph.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace magicrecs::bench {

struct Workload {
  StaticGraph follow_graph;
  StaticGraph follower_index;
  std::vector<TimestampedEdge> events;
  uint64_t burst_events = 0;
};

struct WorkloadConfig {
  uint32_t num_users = 50'000;
  double mean_followees = 30;
  double popularity_exponent = 1.05;
  uint64_t num_events = 100'000;
  /// Default rate spreads 100k events over ~17 minutes of stream time —
  /// beyond the default 10-minute window, so D pruning is exercised and
  /// per-target in-window arrival rates stay proportionate to the paper's
  /// 1e4 events/s over a graph three orders of magnitude larger.
  double events_per_second = 100;
  double burst_fraction = 0.15;
  double mean_burst_size = 5;
  Duration burst_spread = Minutes(4);
  Timestamp start_time = Hours(12);
  uint64_t seed = 1;
};

/// Builds a workload or exits with a diagnostic (benchmark harness context:
/// failing fast beats limping on).
inline Workload MakeWorkload(const WorkloadConfig& config) {
  SocialGraphOptions gopt;
  gopt.num_users = config.num_users;
  gopt.mean_followees = config.mean_followees;
  gopt.popularity_exponent = config.popularity_exponent;
  gopt.seed = config.seed;
  auto graph = SocialGraphGenerator(gopt).Generate();
  if (!graph.ok()) {
    std::fprintf(stderr, "workload graph generation failed: %s\n",
                 graph.status().ToString().c_str());
    std::exit(1);
  }

  ActivityStreamOptions sopt;
  sopt.num_events = config.num_events;
  sopt.events_per_second = config.events_per_second;
  sopt.burst_fraction = config.burst_fraction;
  sopt.mean_burst_size = config.mean_burst_size;
  sopt.burst_spread = config.burst_spread;
  sopt.start_time = config.start_time;
  sopt.seed = config.seed + 1;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  if (!stream.ok()) {
    std::fprintf(stderr, "workload stream generation failed: %s\n",
                 stream.status().ToString().c_str());
    std::exit(1);
  }

  Workload w;
  w.follower_index = graph->Transpose();
  w.follow_graph = std::move(graph).value();
  w.burst_events = stream->burst_events;
  w.events = std::move(stream).value().events;
  return w;
}

/// The diamond MotifEngine over `follower_index`, borrowed as-is (no copy,
/// no hub index added), so it must outlive the engine. Exits on invalid
/// options.
inline std::unique_ptr<MotifEngine> DiamondEngine(
    const StaticGraph& follower_index, const DiamondOptions& options) {
  auto engine = MotifEngine::CreateDiamond(
      std::shared_ptr<const StaticGraph>(std::shared_ptr<const StaticGraph>(),
                                         &follower_index),
      options);
  if (!engine.ok()) {
    std::fprintf(stderr, "diamond engine: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(engine).value();
}

/// Feeds one edge to `engine` and records the call's wall time, in
/// microseconds, into `latency_us`. The engine's own query_micros holds only
/// its timing samples (one event in kTimingSamplePeriod), too few for a
/// bench's tail percentiles, so a bench times every call itself.
inline Status TimedOnEdge(MotifEngine& engine, const TimestampedEdge& e,
                          std::vector<Recommendation>* out,
                          Histogram* latency_us) {
  const Stopwatch timer;
  Status status = engine.OnEdge(e.src, e.dst, e.created_at, out);
  latency_us->Record(timer.ElapsedMicros());
  return status;
}

}  // namespace magicrecs::bench

#endif  // MAGICRECS_BENCH_WORKLOAD_H_
