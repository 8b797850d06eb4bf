// Experiment T1 — "our design targets O(10^4) edge insertions per second".
//
// Measures sustained edge-ingest throughput (insert into D + motif query
// against S) on a single detector across graph sizes, and on the threaded
// cluster across partition counts. The paper's target is 10^4 events/s for
// the whole deployment; a single in-memory partition should beat that by
// orders of magnitude. A last row times D alone (insert + window read) on
// a dense-shaped stream.

#include <cstdio>

#include "bench_json.h"
#include "workload.h"
#include "cluster/cluster.h"
#include "intersect/simd.h"
#include "util/clock.h"
#include "util/str_format.h"

using namespace magicrecs;
using bench::MakeWorkload;
using bench::Workload;
using bench::WorkloadConfig;

namespace {

DiamondOptions ProductionOptions() {
  DiamondOptions opt;
  opt.k = 3;
  opt.window = Minutes(10);
  opt.max_reported_witnesses = 0;  // measure detection, not materialization
  return opt;
}

void SingleDetectorSweep() {
  std::printf("--- single-machine detector, k=3, window=10m ---\n");
  std::printf("%12s %12s %14s %14s %12s\n", "users", "events", "events/s",
              "recs", "vs 1e4/s");
  for (const uint32_t users : {10'000u, 50'000u, 100'000u}) {
    WorkloadConfig config;
    config.num_users = users;
    config.num_events = 30'000;
    // The paper's funnel implies ~1 raw candidate per event in production;
    // a lightly-bursty stream reproduces that density so the table measures
    // ingest+query cost, not candidate materialization (T8 covers that).
    config.burst_fraction = 0.02;
    config.mean_burst_size = 3;
    config.seed = users;
    const Workload w = MakeWorkload(config);

    const auto engine =
        bench::DiamondEngine(w.follower_index, ProductionOptions());
    std::vector<Recommendation> recs;
    uint64_t total_recs = 0;
    Stopwatch timer;
    for (const TimestampedEdge& e : w.events) {
      recs.clear();
      if (!engine->OnEdge(e.src, e.dst, e.created_at, &recs).ok()) return;
      total_recs += recs.size();
    }
    const double seconds = timer.ElapsedSeconds();
    const double rate = static_cast<double>(w.events.size()) / seconds;
    std::printf("%12u %12zu %14s %14s %11.1fx\n", users, w.events.size(),
                HumanCount(rate).c_str(), HumanCount(double(total_recs)).c_str(),
                rate / 1e4);
  }
}

void ThreadedClusterSweep() {
  std::printf("\n--- threaded cluster (every partition ingests the full "
              "stream) ---\n");
  std::printf("%12s %12s %14s %16s\n", "partitions", "events", "events/s",
              "ingests/s(total)");
  WorkloadConfig config;
  config.num_users = 20'000;
  config.num_events = 15'000;
  config.burst_fraction = 0.02;
  config.mean_burst_size = 3;
  config.seed = 99;
  const Workload w = MakeWorkload(config);

  for (const uint32_t partitions : {1u, 2u, 4u}) {
    ClusterOptions copt;
    copt.num_partitions = partitions;
    copt.detector = ProductionOptions();
    auto cluster = Cluster::Create(w.follow_graph, copt);
    if (!cluster.ok()) return;
    if (!(*cluster)->Start().ok()) return;
    Stopwatch timer;
    for (const TimestampedEdge& e : w.events) {
      EdgeEvent event;
      event.edge = e;
      if (!(*cluster)->Publish(event).ok()) return;
    }
    (*cluster)->Drain();
    const double seconds = timer.ElapsedSeconds();
    (*cluster)->Stop();
    const double rate = static_cast<double>(w.events.size()) / seconds;
    std::printf("%12u %12zu %14s %16s\n", partitions, w.events.size(),
                HumanCount(rate).c_str(),
                HumanCount(rate * partitions).c_str());
  }
  std::printf("\nnote: stream fan-out is replicated work (the paper's noted "
              "bottleneck);\nquery work is what partitioning divides.\n");
}

/// Kernel ablation on one detector: the same stream with the SIMD probes
/// and the hub bitsets toggled. events/s is machine-dependent but the
/// relative spread shows what each layer buys on the full OnEdge path
/// (dynamic-index insert + gather + threshold intersect), not just inside
/// the intersection microbenchmark.
void KernelAblationSweep(bench::JsonRows* rows) {
  std::printf("\n--- kernel ablation, single detector (100k users) ---\n");
  std::printf("%18s %12s %14s %14s\n", "config", "events", "events/s",
              "recs");

  WorkloadConfig config;
  config.num_users = 100'000;
  config.num_events = 30'000;
  // Heavier popularity skew than T1's sweep: celebrity B's are what the
  // hub bitsets and the SIMD verify probes exist for.
  config.popularity_exponent = 1.2;
  config.burst_fraction = 0.02;
  config.mean_burst_size = 3;
  config.seed = 100'000;
  Workload w = MakeWorkload(config);

  struct Config {
    const char* name;
    bool simd;
    bool hubs;
  };
  for (const Config& c : {Config{"scalar", false, false},
                          Config{"simd", true, false},
                          Config{"simd+hubs", true, true}}) {
    const bool prior = SetSimdEnabled(c.simd);
    StaticGraph index = w.follower_index;
    if (c.hubs) index.BuildHubIndex();
    DiamondOptions opt = ProductionOptions();
    opt.use_hub_bitsets = c.hubs;
    // Best-of-2 passes: this box is one shared core, and a mid-run stall
    // would otherwise masquerade as a kernel regression in the gated rows.
    double rate = 0;
    uint64_t total_recs = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const auto engine = bench::DiamondEngine(index, opt);
      std::vector<Recommendation> recs;
      total_recs = 0;
      Stopwatch timer;
      for (const TimestampedEdge& e : w.events) {
        recs.clear();
        if (!engine->OnEdge(e.src, e.dst, e.created_at, &recs).ok()) return;
        total_recs += recs.size();
      }
      rate = std::max(
          rate, static_cast<double>(w.events.size()) / timer.ElapsedSeconds());
    }
    SetSimdEnabled(prior);
    std::printf("%18s %12zu %14s %14s\n", c.name, w.events.size(),
                HumanCount(rate).c_str(),
                HumanCount(double(total_recs)).c_str());
    rows->AddThroughput("throughput-kernels", c.name, 1, rate, total_recs);
  }
}

/// D alone: WindowStage::Window (index-insert + index-window) with no
/// query half, on a stream shaped like the serving benchmark's `dense`
/// (20k users, Zipf 0.8, 40 events/s against a 10-minute window, so about
/// 24k events are in the window and hot destinations hold hundreds). The
/// row gates the window read; its "recs" field counts the events whose
/// window reached k, i.e. the queries the window half would start.
void WindowSweep(bench::JsonRows* rows) {
  std::printf("\n--- D alone (index-insert + index-window), dense-shaped "
              "stream ---\n");
  std::printf("%18s %12s %14s %14s\n", "config", "events", "events/s",
              "queries");

  WorkloadConfig config;
  config.num_users = 20'000;
  config.popularity_exponent = 0.8;
  config.num_events = 150'000;
  config.events_per_second = 40;
  config.burst_fraction = 0.02;
  config.mean_burst_size = 3;
  const Workload w = MakeWorkload(config);

  const DiamondOptions options = ProductionOptions();
  const Result<MotifPlan> plan = CompileDiamond(options);
  if (!plan.ok()) return;

  // Best-of-2 passes, as in the kernel ablation.
  double rate = 0;
  uint64_t queries = 0;
  for (int pass = 0; pass < 2; ++pass) {
    WindowStage window(*plan, options);
    std::vector<VertexId> actors;
    queries = 0;
    Stopwatch timer;
    for (const TimestampedEdge& e : w.events) {
      actors.clear();
      if (!window.Window(e.src, e.dst, e.created_at, &actors).ok()) return;
      queries += actors.empty() ? 0 : 1;
    }
    rate = std::max(
        rate, static_cast<double>(w.events.size()) / timer.ElapsedSeconds());
  }
  std::printf("%18s %12zu %14s %14s\n", "window", w.events.size(),
              HumanCount(rate).c_str(), HumanCount(double(queries)).c_str());
  rows->AddThroughput("throughput-window", "window", 1, rate, queries);
}

}  // namespace

int main() {
  std::printf("=== T1: edge-ingest throughput (paper target: 1e4 edge "
              "insertions/s) ===\n\n");
  SingleDetectorSweep();
  ThreadedClusterSweep();
  bench::JsonRows rows;
  KernelAblationSweep(&rows);
  WindowSweep(&rows);
  rows.MergeWrite("BENCH_net.json");
  return 0;
}
