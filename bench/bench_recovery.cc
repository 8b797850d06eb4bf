// Experiment T-persist — durability cost and recovery speed.
//
// Three questions the persist/ subsystem must answer before it is allowed
// near the ingest hot path:
//   1. What does WAL append cost per event, on top of insert-into-D plus the
//      motif query? (buffered and fsync-per-append variants)
//   2. How big is a snapshot, and how long do write/load take?
//   3. How fast does WAL replay run during recovery (events/s), and how much
//      does a snapshot cutoff shrink the replay?

#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "workload.h"
#include "core/engine.h"
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

EngineOptions ProductionOptions() {
  EngineOptions options;
  options.detector.k = 3;
  options.detector.window = Minutes(10);
  options.detector.max_reported_witnesses = 0;
  return options;
}

EdgeEvent ToEvent(const TimestampedEdge& edge, uint64_t sequence) {
  EdgeEvent event;
  event.edge = edge;
  event.sequence = sequence;
  return event;
}

/// Ingests the whole stream through a fresh engine, optionally logging every
/// event; returns events/s.
double IngestRun(const Workload& w, WalWriter* wal) {
  auto engine = RecommenderEngine::Create(w.follow_graph, ProductionOptions());
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<Recommendation> recs;
  Stopwatch timer;
  for (size_t i = 0; i < w.events.size(); ++i) {
    const TimestampedEdge& e = w.events[i];
    if (wal != nullptr) {
      if (!wal->Append(ToEvent(e, i)).ok()) std::exit(1);
    }
    recs.clear();
    if (!(*engine)->OnEdge(e.src, e.dst, e.created_at, &recs).ok()) {
      std::exit(1);
    }
  }
  return static_cast<double>(w.events.size()) / timer.ElapsedSeconds();
}

void WalAppendOverhead(const Workload& w, const std::string& root) {
  std::printf("--- WAL append overhead on the ingest hot path ---\n");
  std::printf("%-24s %14s %12s\n", "mode", "events/s", "overhead");

  const double base = IngestRun(w, nullptr);
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
    auto wal = WalWriter::Open(persist);
    if (!wal.ok()) std::exit(1);
    const double rate = IngestRun(w, wal->get());
    std::printf("%-24s %14s %11.1f%%\n", variant.name,
                HumanCount(rate).c_str(), 100.0 * (base / rate - 1.0));
  }
}

void SnapshotCosts(const Workload& w, const std::string& root) {
  std::printf("\n--- snapshot size and write/load cost ---\n");
  auto engine = RecommenderEngine::Create(w.follow_graph, ProductionOptions());
  if (!engine.ok()) std::exit(1);
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : w.events) {
    recs.clear();
    (void)(*engine)->OnEdge(e.src, e.dst, e.created_at, &recs);
  }

  std::printf("%-24s %12s %12s %12s\n", "contents", "bytes", "write ms",
              "load ms");
  for (const bool with_static : {false, true}) {
    const std::string path =
        root + (with_static ? "/full.snap" : "/dynamic.snap");
    SnapshotMeta meta;
    meta.next_sequence = w.events.size();
    Stopwatch write_timer;
    const Status ws = WriteSnapshot(
        path, meta, with_static ? &(*engine)->follower_index() : nullptr,
        &(*engine)->motif_engine().dynamic_index());
    if (!ws.ok()) std::exit(1);
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
    if (with_static) {
      auto g = StaticGraph::DecodeFrom(
          reinterpret_cast<const uint8_t*>(contents->static_bytes.data()),
          contents->static_bytes.size());
      if (!g.ok()) std::exit(1);
    }
    const double load_ms = ToMillis(load_timer.ElapsedMicros());

    std::printf("%-24s %12s %12.1f %12.1f\n",
                with_static ? "S + D" : "D only",
                HumanBytes(fs::file_size(path)).c_str(), write_ms, load_ms);
  }
}

void RecoverySpeed(const Workload& w, const std::string& root) {
  std::printf("\n--- recovery: snapshot load + WAL replay ---\n");

  // Populate a durable partition: full WAL, plus a checkpoint at half the
  // stream for the snapshot+tail variant.
  PersistOptions persist;
  persist.dir = root + "/recovery";
  RecoveryManager recovery(persist);
  {
    auto engine = RecommenderEngine::Create(w.follow_graph, ProductionOptions());
    if (!engine.ok()) std::exit(1);
    auto wal = WalWriter::Open(persist);
    if (!wal.ok()) std::exit(1);
    const size_t half = w.events.size() / 2;
    std::vector<Recommendation> recs;
    for (size_t i = 0; i < w.events.size(); ++i) {
      const TimestampedEdge& e = w.events[i];
      if (!(*wal)->Append(ToEvent(e, i)).ok()) std::exit(1);
      recs.clear();
      (void)(*engine)->OnEdge(e.src, e.dst, e.created_at, &recs);
      if (i + 1 == half) {
        if (!(*wal)->Sync().ok()) std::exit(1);
        // Keep the WAL intact (no truncation) so the replay-all variant
        // below still sees the full stream: snapshot directly, not via
        // Checkpoint().
        SnapshotMeta meta;
        meta.next_sequence = half;
        const Status s = WriteSnapshot(
            persist.dir + "/" + SnapshotFileName(half), meta,
            &(*engine)->follower_index(),
            &(*engine)->motif_engine().dynamic_index());
        if (!s.ok()) std::exit(1);
      }
    }
  }

  std::printf("%-24s %12s %14s %12s\n", "variant", "replayed", "replay ev/s",
              "total ms");

  // Variant 1: WAL-only (pretend the snapshot is absent by replaying into a
  // fresh engine from sequence 0).
  {
    auto engine = RecommenderEngine::Create(w.follow_graph, ProductionOptions());
    if (!engine.ok()) std::exit(1);
    Stopwatch timer;
    uint64_t replayed = 0;
    const Status s = ReplayWal(
        persist.dir, 0,
        [&](const EdgeEvent& event) {
          ++replayed;
          return (*engine)->motif_engine().Ingest(
              event.edge.src, event.edge.dst, event.edge.created_at);
        },
        nullptr);
    if (!s.ok()) std::exit(1);
    const double seconds = timer.ElapsedSeconds();
    std::printf("%-24s %12llu %14s %12.1f\n", "wal only (full replay)",
                static_cast<unsigned long long>(replayed),
                HumanCount(static_cast<double>(replayed) / seconds).c_str(),
                seconds * 1e3);
  }

  // Variant 2: snapshot + WAL tail via the real recovery path.
  {
    RecoveryStats stats;
    auto engine = recovery.RecoverEngine(ProductionOptions(), &stats);
    if (!engine.ok()) std::exit(1);
    const double seconds = ToSeconds(stats.wall_micros);
    std::printf("%-24s %12llu %14s %12.1f\n", "snapshot + wal tail",
                static_cast<unsigned long long>(stats.events_replayed),
                HumanCount(static_cast<double>(stats.events_replayed) /
                           seconds)
                    .c_str(),
                seconds * 1e3);
    std::printf("  recovery stats: %s\n", stats.ToString().c_str());
  }
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
