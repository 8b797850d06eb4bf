// Experiment T-persist — durability cost and recovery speed.
//
// Three questions the persist/ subsystem must answer before it is allowed
// near the ingest hot path:
//   1. What does WAL append cost per event, on top of insert-into-D plus the
//      motif query? (buffered and fsync-per-append variants, measured on a
//      one-partition inline Cluster, the single-machine deployment)
//   2. How big is a snapshot of D, and how long do write/load take?
//   3. How fast does WAL replay run during recovery (events/s), and how much
//      does a snapshot cutoff shrink the replay?

#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "workload.h"
#include "cluster/cluster.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/clock.h"
#include "util/str_format.h"

using namespace magicrecs;
using bench::MakeWorkload;
using bench::Workload;
using bench::WorkloadConfig;

namespace {

namespace fs = std::filesystem;

DiamondOptions ProductionOptions() {
  DiamondOptions options;
  options.k = 3;
  options.window = Minutes(10);
  options.max_reported_witnesses = 0;
  return options;
}

/// One partition, one replica, inline: the single-machine deployment. With
/// `persist.dir` set the broker WAL-appends every event.
std::unique_ptr<Cluster> MakeCluster(const Workload& w,
                                     const PersistOptions& persist) {
  ClusterOptions options;
  options.num_partitions = 1;
  options.detector = ProductionOptions();
  options.persist = persist;
  auto cluster = Cluster::Create(w.follow_graph, options);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(cluster).value();
}

/// Feeds events [begin, end) through the inline cluster, dropping each
/// event's recommendations.
void Feed(Cluster* cluster, const Workload& w, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (!cluster->Publish({.edge = w.events[i]}).ok()) std::exit(1);
    cluster->TakeRecommendations();
  }
}

/// Ingests the whole stream through a fresh one-partition cluster (logging
/// every event when `persist.dir` is set); returns events/s.
double IngestRun(const Workload& w, const PersistOptions& persist) {
  const std::unique_ptr<Cluster> cluster = MakeCluster(w, persist);
  Stopwatch timer;
  Feed(cluster.get(), w, 0, w.events.size());
  return static_cast<double>(w.events.size()) / timer.ElapsedSeconds();
}

void WalAppendOverhead(const Workload& w, const std::string& root) {
  std::printf("--- WAL append overhead on the ingest hot path ---\n");
  std::printf("%-24s %14s %12s\n", "mode", "events/s", "overhead");

  const double base = IngestRun(w, PersistOptions{});
  std::printf("%-24s %14s %12s\n", "no wal", HumanCount(base).c_str(), "-");

  struct Variant {
    const char* name;
    const char* subdir;
    bool sync_each;
    size_t fsync_batch;
  };
  // Group commit (fsync_batch) sits between the extremes: bounded
  // durability exposure at a fraction of the per-append fsync cost.
  const Variant variants[] = {
      {"wal, buffered", "/wal_buffered", false, 1},
      {"wal, fsync each", "/wal_sync", true, 1},
      {"wal, fsync batch=32", "/wal_batch32", true, 32},
      {"wal, fsync batch=256", "/wal_batch256", true, 256},
  };
  for (const Variant& variant : variants) {
    PersistOptions persist;
    persist.dir = root + variant.subdir;
    persist.sync_each_append = variant.sync_each;
    persist.fsync_batch = variant.fsync_batch;
    const double rate = IngestRun(w, persist);
    std::printf("%-24s %14s %11.1f%%\n", variant.name,
                HumanCount(rate).c_str(), 100.0 * (base / rate - 1.0));
  }
}

void SnapshotCosts(const Workload& w, const std::string& root) {
  std::printf("\n--- snapshot size and write/load cost ---\n");
  const std::unique_ptr<Cluster> cluster = MakeCluster(w, PersistOptions{});
  Feed(cluster.get(), w, 0, w.events.size());

  std::printf("%-24s %12s %12s %12s\n", "contents", "bytes", "write ms",
              "load ms");
  const std::string path = root + "/dynamic.snap";
  SnapshotMeta meta;
  meta.next_sequence = w.events.size();
  Stopwatch write_timer;
  if (!WriteSnapshot(path, meta, cluster->dynamic_index()).ok()) {
    std::exit(1);
  }
  const double write_ms = ToMillis(write_timer.ElapsedMicros());

  Stopwatch load_timer;
  auto contents = ReadSnapshot(path);
  if (!contents.ok()) std::exit(1);
  DynamicInEdgeIndex restored;
  if (!restored
           .DecodeFrom(reinterpret_cast<const uint8_t*>(
                           contents->dynamic_bytes.data()),
                       contents->dynamic_bytes.size())
           .ok()) {
    std::exit(1);
  }
  const double load_ms = ToMillis(load_timer.ElapsedMicros());

  std::printf("%-24s %12s %12.1f %12.1f\n", "D only",
              HumanBytes(fs::file_size(path)).c_str(), write_ms, load_ms);
}

void RecoverySpeed(const Workload& w, const std::string& root) {
  std::printf("\n--- recovery: snapshot load + WAL replay ---\n");

  // Populate a durable partition: full WAL, plus a snapshot at half the
  // stream for the snapshot+tail variant. The snapshot is written
  // directly, not via Checkpoint(), to keep the WAL intact (no truncation)
  // so the replay-all variant below still sees the full stream.
  PersistOptions persist;
  persist.dir = root + "/recovery";
  std::unique_ptr<Cluster> cluster = MakeCluster(w, persist);
  const size_t half = w.events.size() / 2;
  Feed(cluster.get(), w, 0, half);
  SnapshotMeta meta;
  meta.next_sequence = half;
  if (!WriteSnapshot(persist.dir + "/" + SnapshotFileName(half), meta,
                     cluster->dynamic_index())
           .ok()) {
    std::exit(1);
  }
  Feed(cluster.get(), w, half, w.events.size());
  cluster.reset();  // the process stops; closing the WAL flushes it

  std::printf("%-24s %12s %14s %12s\n", "variant", "replayed", "replay ev/s",
              "total ms");
  const auto print_row = [](const char* name, uint64_t replayed,
                            double seconds) {
    std::printf("%-24s %12llu %14s %12.1f\n", name,
                static_cast<unsigned long long>(replayed),
                HumanCount(static_cast<double>(replayed) / seconds).c_str(),
                seconds * 1e3);
  };

  // Variant 1: snapshot + WAL tail, the pass Cluster::Create runs on
  // restart to rebuild the process's one D.
  const DiamondOptions options = ProductionOptions();
  const Result<MotifPlan> plan = CompileDiamond(options);
  if (!plan.ok()) std::exit(1);
  WindowStage window(*plan, options);
  RecoveryStats stats;
  if (!RecoveryManager(persist).RecoverDynamicState(&window, &stats).ok()) {
    std::exit(1);
  }
  print_row("snapshot + wal tail", stats.events_replayed,
            ToSeconds(stats.wall_micros));
  std::printf("  recovery stats: %s\n", stats.ToString().c_str());

  // Variant 2: WAL only (pretend the snapshot is absent by replaying into a
  // fresh D from sequence 0).
  WindowStage fresh(*plan, options);
  Stopwatch timer;
  uint64_t replayed = 0;
  const Status s = ReplayWal(
      persist.dir, 0,
      [&](const EdgeEvent& event) {
        ++replayed;
        return fresh.Ingest(event.edge.src, event.edge.dst,
                            event.edge.created_at);
      },
      nullptr);
  if (!s.ok()) std::exit(1);
  print_row("wal only (full replay)", replayed, timer.ElapsedSeconds());
}

}  // namespace

int main() {
  WorkloadConfig config;
  config.num_users = 20'000;
  config.num_events = 100'000;
  config.burst_fraction = 0.05;
  config.mean_burst_size = 3;
  config.seed = 1234;
  const Workload w = MakeWorkload(config);
  std::printf("workload: %zu users, %zu follow edges, %zu events\n\n",
              w.follow_graph.num_vertices(), w.follow_graph.num_edges(),
              w.events.size());

  // PID-unique scratch dir so concurrent bench runs cannot trample each
  // other's WAL segments mid-measurement.
  const std::string root =
      (fs::temp_directory_path() /
       StrFormat("magicrecs_bench_recovery_%d", static_cast<int>(getpid())))
          .string();
  fs::remove_all(root);
  fs::create_directories(root);

  WalAppendOverhead(w, root);
  SnapshotCosts(w, root);
  RecoverySpeed(w, root);

  fs::remove_all(root);
  return 0;
}
