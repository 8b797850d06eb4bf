#include "persist/recovery.h"

#include <algorithm>
#include <filesystem>

#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/clock.h"
#include "util/str_format.h"

namespace magicrecs {

std::string RecoveryStats::ToString() const {
  return StrFormat(
      "snapshot=%s (%llu bytes) wal: %llu records / %llu bytes, "
      "replayed=%llu skipped=%llu clean_tail=%s next_seq=%llu in %.1f ms",
      snapshot_loaded ? "loaded" : "none",
      static_cast<unsigned long long>(snapshot_bytes),
      static_cast<unsigned long long>(wal_records),
      static_cast<unsigned long long>(wal_bytes_read),
      static_cast<unsigned long long>(events_replayed),
      static_cast<unsigned long long>(events_skipped),
      wal_clean_tail ? "true" : "false",
      static_cast<unsigned long long>(next_sequence), ToMillis(wall_micros));
}

Status RecoveryManager::ReplayFrom(uint64_t min_sequence, MotifEngine* engine,
                                   RecoveryStats* stats) const {
  uint64_t max_seen = 0;
  bool any = false;
  WalReplayStats wal_stats;
  MAGICRECS_RETURN_IF_ERROR(ReplayWal(
      options_.dir, min_sequence,
      [&](const EdgeEvent& event) {
        max_seen = std::max(max_seen, event.sequence);
        any = true;
        return engine->Ingest(event.edge.src, event.edge.dst,
                              event.edge.created_at);
      },
      &wal_stats));
  stats->wal_bytes_read = wal_stats.bytes_read;
  stats->wal_records = wal_stats.records;
  stats->events_replayed = wal_stats.events_applied;
  stats->events_skipped = wal_stats.events_skipped;
  stats->wal_clean_tail = wal_stats.clean_tail;
  stats->next_sequence = any ? max_seen + 1 : min_sequence;
  return Status::OK();
}

Status RecoveryManager::RecoverDynamicState(MotifEngine* engine,
                                            RecoveryStats* stats) const {
  *stats = RecoveryStats{};
  if (!options_.enabled()) {
    return Status::FailedPrecondition("persistence is not configured");
  }
  Stopwatch timer;
  // Reset first, so stale pre-crash edges cannot leak into the rebuilt D.
  engine->ClearDynamicState();
  uint64_t min_sequence = 0;
  Result<std::string> path = FindLatestSnapshot(options_.dir);
  if (path.ok()) {
    MAGICRECS_ASSIGN_OR_RETURN(const SnapshotContents snapshot,
                               ReadSnapshot(*path));
    MAGICRECS_RETURN_IF_ERROR(engine->RestoreDynamicState(
        reinterpret_cast<const uint8_t*>(snapshot.dynamic_bytes.data()),
        snapshot.dynamic_bytes.size()));
    std::error_code ec;
    const auto size = std::filesystem::file_size(*path, ec);
    stats->snapshot_bytes = ec ? 0 : size;
    stats->snapshot_loaded = true;
    min_sequence = snapshot.meta.next_sequence;
  } else if (!path.status().IsNotFound()) {  // NotFound: cold start
    return path.status();
  }
  MAGICRECS_RETURN_IF_ERROR(ReplayFrom(min_sequence, engine, stats));
  stats->wall_micros = timer.ElapsedMicros();
  return Status::OK();
}

Status RecoveryManager::Checkpoint(const MotifEngine& engine,
                                   uint32_t partition_id,
                                   uint64_t next_sequence,
                                   Timestamp created_at) const {
  if (!options_.enabled()) {
    return Status::FailedPrecondition("persistence is not configured");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::Internal(StrFormat("create_directories %s: %s",
                                      options_.dir.c_str(),
                                      ec.message().c_str()));
  }
  SnapshotMeta meta;
  meta.partition_id = partition_id;
  meta.next_sequence = next_sequence;
  meta.created_at = created_at;
  const std::string path =
      options_.dir + "/" + SnapshotFileName(next_sequence);
  MAGICRECS_RETURN_IF_ERROR(
      WriteSnapshot(path, meta, engine.dynamic_index()));
  // Reclaim everything the new snapshot supersedes. Failing to reclaim is
  // not fatal to durability, but surfacing it beats silent disk growth.
  MAGICRECS_RETURN_IF_ERROR(
      TruncateWalBefore(options_.dir, next_sequence).status());
  return RemoveSnapshotsBefore(options_.dir, next_sequence).status();
}

}  // namespace magicrecs
