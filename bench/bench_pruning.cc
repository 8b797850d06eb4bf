// Experiment T10 — "memory pressure can be alleviated by pruning the D data
// structure to only retain the most recent edges (since we desire timely
// results)".
//
// Sweeps the freshness window tau and the per-vertex retention cap on a
// fixed hour-long stream; reports retained edges, D memory, and the
// recommendation volume (tighter windows trade recall for memory).

#include <cstdio>

#include "workload.h"
#include "util/str_format.h"

using namespace magicrecs;
using bench::MakeWorkload;
using bench::Workload;
using bench::WorkloadConfig;

int main() {
  std::printf("=== T10: pruning the D structure (window tau + per-vertex "
              "cap) ===\n\n");
  WorkloadConfig config;
  config.num_users = 15'000;
  config.num_events = 40'000;
  config.events_per_second = 50;  // ~66 minutes of stream time
  config.burst_spread = Minutes(2);
  config.seed = 6;
  const Workload w = MakeWorkload(config);
  std::printf("stream: %zu events over %.0f minutes\n\n", w.events.size(),
              ToSeconds(w.events.back().created_at -
                        w.events.front().created_at) /
                  60.0);

  std::printf("--- window sweep (no cap) ---\n");
  std::printf("%10s %14s %14s %12s %12s %10s\n", "window", "retained",
              "pruned", "D memory", "recs", "recall");
  uint64_t reference_recs = 0;
  for (const Duration window :
       {Minutes(30), Minutes(10), Minutes(2), Seconds(30)}) {
    DiamondOptions opt;
    opt.k = 3;
    opt.window = window;
    opt.max_reported_witnesses = 0;
    const auto engine = bench::DiamondEngine(w.follower_index, opt);
    std::vector<Recommendation> recs;
    uint64_t total_recs = 0;
    for (const TimestampedEdge& e : w.events) {
      recs.clear();
      if (!engine->OnEdge(e.src, e.dst, e.created_at, &recs).ok()) return 1;
      total_recs += recs.size();
    }
    if (window == Minutes(30)) reference_recs = total_recs;
    const DynamicGraphStats stats = engine->dynamic_index().stats();
    std::printf("%9llds %14s %14s %12s %12s %9.1f%%\n",
                static_cast<long long>(window / kMicrosPerSecond),
                CommaSeparated(stats.current_edges).c_str(),
                CommaSeparated(stats.pruned).c_str(),
                HumanBytes(engine->DynamicMemoryUsage()).c_str(),
                HumanCount(static_cast<double>(total_recs)).c_str(),
                reference_recs == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(total_recs) /
                          static_cast<double>(reference_recs));
  }

  std::printf("\n--- per-vertex retention cap (window=10m) ---\n");
  std::printf("%10s %14s %14s %12s %12s\n", "cap", "retained", "evicted",
              "D memory", "recs");
  for (const size_t cap : {size_t{0}, size_t{512}, size_t{64}, size_t{8}}) {
    DiamondOptions opt;
    opt.k = 3;
    opt.window = Minutes(10);
    opt.max_reported_witnesses = 0;
    opt.max_in_edges_per_vertex = cap;
    const auto engine = bench::DiamondEngine(w.follower_index, opt);
    std::vector<Recommendation> recs;
    uint64_t total_recs = 0;
    for (const TimestampedEdge& e : w.events) {
      recs.clear();
      if (!engine->OnEdge(e.src, e.dst, e.created_at, &recs).ok()) return 1;
      total_recs += recs.size();
    }
    const DynamicGraphStats stats = engine->dynamic_index().stats();
    std::printf("%10s %14s %14s %12s %12s\n",
                cap == 0 ? "unlimited" : CommaSeparated(cap).c_str(),
                CommaSeparated(stats.current_edges).c_str(),
                CommaSeparated(stats.evicted).c_str(),
                HumanBytes(engine->DynamicMemoryUsage()).c_str(),
                HumanCount(static_cast<double>(total_recs)).c_str());
  }
  std::printf("\nshape: retained edges and D memory scale with tau; "
              "freshness (small tau) is\nexactly what bounds memory — the "
              "paper's observation.\n");
  return 0;
}
