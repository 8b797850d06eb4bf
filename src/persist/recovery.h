// Crash recovery for durable partitions: restore = load the newest
// snapshot's D (if any), then replay WAL records from the snapshot's
// sequence cutoff — ingest-only, since recommendations for replayed events
// were already delivered before the crash. Checkpoint = write a snapshot of
// D, then reclaim WAL segments and snapshots it supersedes. S is never
// persisted: Cluster::Create rebuilds it from the follow graph and then
// restores every replica's D through RecoverPartitionServer.
//
// Recovery is deterministic: D is a pure function of the event stream, so
// snapshot-load + replay reproduces exactly the state an uninterrupted run
// would have had (tests/persist/recovery_test.cc asserts byte-identical
// recommendations across a restarted one-partition Cluster).

#ifndef MAGICRECS_PERSIST_RECOVERY_H_
#define MAGICRECS_PERSIST_RECOVERY_H_

#include <cstdint>
#include <string>

#include "cluster/partition_server.h"
#include "core/motif_engine.h"
#include "persist/persist_options.h"
#include "util/result.h"
#include "util/status.h"
#include "util/types.h"

namespace magicrecs {

/// What one recovery pass read and rebuilt.
struct RecoveryStats {
  bool snapshot_loaded = false;
  uint64_t snapshot_bytes = 0;   ///< snapshot file size on disk
  uint64_t wal_bytes_read = 0;
  uint64_t wal_records = 0;      ///< valid WAL records decoded
  uint64_t events_replayed = 0;  ///< records re-ingested into D
  uint64_t events_skipped = 0;   ///< records already covered by the snapshot
  bool wal_clean_tail = true;    ///< false: replay stopped at a torn record
  uint64_t next_sequence = 0;    ///< where live ingest should resume
  Duration wall_micros = 0;      ///< total recovery wall time

  std::string ToString() const;
};

/// Stateless orchestrator over one persistence directory.
class RecoveryManager {
 public:
  explicit RecoveryManager(const PersistOptions& options) : options_(options) {}

  /// Rebuilds a partition replica's dynamic state: clears D, restores the
  /// newest snapshot's D (if any), then replays the WAL tail the snapshot
  /// does not cover through Ingest. The immutable S shard is untouched; it
  /// is rebuilt from the follow graph, never persisted. A directory with no
  /// snapshot and no WAL is a valid cold start (empty state, OK). The
  /// server's next_sequence() reflects the replay afterwards. Resets and
  /// fills *stats (optional).
  Status RecoverPartitionServer(PartitionServer* server,
                                RecoveryStats* stats) const;

  /// Writes a snapshot of `engine`'s D covering sequences
  /// [0, next_sequence), then deletes the WAL segments and older snapshots
  /// it supersedes. The caller must be quiesced: `engine` must have applied
  /// exactly the events below `next_sequence`.
  Status Checkpoint(const MotifEngine& engine, uint32_t partition_id,
                    uint64_t next_sequence, Timestamp created_at) const;

  const PersistOptions& options() const { return options_; }

 private:
  /// Replays WAL records with sequence >= min_sequence into `engine`,
  /// accounting into *stats (including the post-replay next_sequence).
  Status ReplayFrom(uint64_t min_sequence, MotifEngine* engine,
                    RecoveryStats* stats) const;

  PersistOptions options_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_PERSIST_RECOVERY_H_
