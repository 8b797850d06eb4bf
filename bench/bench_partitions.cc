// Experiment T5 — the partitioned, replicated deployment (20 partitions in
// production). Partitioning by A keeps every intersection local; the price
// (which the paper calls out as the scalability bottleneck) is that every
// partition must read a complete D. On separate machines that is a full
// copy of D per partition; in one process, every hosted partition reads
// the process's one D.
//
// Reported per partition count: identical recommendations, query work per
// partition (locality), total D memory (one D per process, so constant),
// and the replica sweep for query throughput.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "workload.h"
#include "cluster/cluster.h"
#include "util/clock.h"
#include "util/str_format.h"

using namespace magicrecs;
using bench::MakeWorkload;
using bench::Workload;
using bench::WorkloadConfig;

int main() {
  std::printf("=== T5: partitioning and replication (production: 20 "
              "partitions) ===\n\n");
  WorkloadConfig config;
  config.num_users = 15'000;
  config.num_events = 20'000;
  config.seed = 5;
  const Workload w = MakeWorkload(config);

  DiamondOptions dopt;
  dopt.k = 3;
  dopt.window = Minutes(10);
  dopt.max_reported_witnesses = 0;

  std::printf("%11s %10s %12s %12s %14s %14s\n", "partitions", "recs",
              "S total", "D total", "ingests", "queries(sum)");
  uint64_t reference_recs = 0;
  for (const uint32_t partitions : {1u, 2u, 4u, 8u, 20u}) {
    ClusterOptions copt;
    copt.num_partitions = partitions;
    copt.detector = dopt;
    auto cluster = Cluster::Create(w.follow_graph, copt);
    if (!cluster.ok()) return 1;
    uint64_t total_recs = 0;
    for (const TimestampedEdge& e : w.events) {
      if (!(*cluster)->Publish({.edge = e}).ok()) return 1;
      total_recs += (*cluster)->TakeRecommendations()->size();
    }
    if (partitions == 1) reference_recs = total_recs;
    const MotifEngineStats stats = (*cluster)->AggregatedStats();
    std::printf("%11u %10s %12s %12s %14s %14s %s\n", partitions,
                HumanCount(static_cast<double>(total_recs)).c_str(),
                HumanBytes((*cluster)->TotalStaticMemory()).c_str(),
                HumanBytes((*cluster)->TotalDynamicMemory()).c_str(),
                HumanCount(static_cast<double>(stats.events)).c_str(),
                HumanCount(static_cast<double>(stats.threshold_queries)).c_str(),
                total_recs == reference_recs ? "[recs identical]"
                                             : "[RECS DIFFER!]");
  }
  std::printf("\nS is sharded (sum constant); D is one per process "
              "(constant), so ingest work is\ndone once per event. A "
              "machine per partition would hold a copy each — the\npaper's "
              "noted memory/network bottleneck.\n");

  std::printf("\n--- replica sweep (partitions=4): query share per replica "
              "---\n");
  std::printf("%9s %10s %22s\n", "replicas", "recs", "queries/replica(avg)");
  for (const uint32_t replicas : {1u, 2u, 4u}) {
    ClusterOptions copt;
    copt.num_partitions = 4;
    copt.replicas_per_partition = replicas;
    copt.detector = dopt;
    auto cluster = Cluster::Create(w.follow_graph, copt);
    if (!cluster.ok()) return 1;
    uint64_t total_recs = 0;
    for (const TimestampedEdge& e : w.events) {
      if (!(*cluster)->Publish({.edge = e}).ok()) return 1;
      total_recs += (*cluster)->TakeRecommendations()->size();
    }
    const MotifEngineStats stats = (*cluster)->AggregatedStats();
    std::printf("%9u %10s %22s\n", replicas,
                HumanCount(static_cast<double>(total_recs)).c_str(),
                HumanCount(static_cast<double>(stats.threshold_queries) /
                           (4.0 * replicas))
                    .c_str());
  }
  std::printf("\nevery replica reads the process's complete D but "
              "answers only 1/replicas\nof the queries — \"replicate the "
              "partitions for both fault tolerance and\nincreased query "
              "throughput\".\n");

  std::printf("\n--- chaos loop (threaded, partitions=4, replicas=2): kill "
              "-> publish -> recover ---\n");
  {
    // Uninterrupted reference.
    ClusterOptions copt;
    copt.num_partitions = 4;
    copt.replicas_per_partition = 2;
    copt.detector = dopt;
    auto reference = Cluster::Create(w.follow_graph, copt);
    if (!reference.ok()) return 1;
    for (const TimestampedEdge& e : w.events) {
      if (!(*reference)->Publish({.edge = e}).ok()) return 1;
    }
    const std::vector<Recommendation> ref_recs =
        (*reference)->TakeRecommendations().value();

    auto chaos = Cluster::Create(w.follow_graph, copt);
    if (!chaos.ok() || !(*chaos)->Start().ok()) return 1;
    constexpr size_t kRounds = 16;
    const size_t chunk = (w.events.size() + kRounds - 1) / kRounds;
    Stopwatch watch;
    size_t kills = 0, recoveries = 0;
    for (size_t round = 0; round * chunk < w.events.size(); ++round) {
      const uint32_t victim = static_cast<uint32_t>(round % 2);
      for (uint32_t p = 0; p < 4; ++p) {
        if (!(*chaos)->KillReplica(p, victim).ok()) return 1;
        ++kills;
      }
      const size_t begin = round * chunk;
      const size_t end = std::min(begin + chunk, w.events.size());
      for (size_t i = begin; i < end; ++i) {
        EdgeEvent event;
        event.edge = w.events[i];
        if (!(*chaos)->Publish(event).ok()) return 1;
      }
      for (uint32_t p = 0; p < 4; ++p) {
        if (!(*chaos)->RecoverReplica(p, victim).ok()) return 1;
        ++recoveries;
      }
    }
    (*chaos)->Drain();
    (*chaos)->Stop();
    const double secs = watch.ElapsedSeconds();
    const std::vector<Recommendation> chaos_recs =
        (*chaos)->TakeRecommendations().value();

    auto pairs = [](const std::vector<Recommendation>& recs) {
      std::vector<std::pair<VertexId, VertexId>> out;
      out.reserve(recs.size());
      for (const auto& r : recs) out.emplace_back(r.user, r.item);
      std::sort(out.begin(), out.end());
      return out;
    };
    const bool identical = pairs(chaos_recs) == pairs(ref_recs);
    std::printf("%zu rounds, %zu kills, %zu recoveries over %s events in "
                "%.2fs (%s ev/s)\nrecommendations vs uninterrupted run: %s\n",
                kRounds, kills, recoveries,
                HumanCount(static_cast<double>(w.events.size())).c_str(), secs,
                HumanCount(static_cast<double>(w.events.size()) / secs).c_str(),
                identical ? "[identical]" : "[DIFFER!]");
    if (!identical) return 1;
    std::printf("\nfailover re-spreads queries over survivors and a "
                "recovered replica reads the\nprocess's D, so repeated "
                "kill/recover cycles lose nothing — the paper's\n"
                "fault-tolerance claim under sustained churn.\n");
  }
  return 0;
}
