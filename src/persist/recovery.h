// Crash recovery for a durable process: restore = load the newest
// snapshot's D (if any), then replay WAL records from the snapshot's
// sequence cutoff — ingest-only: replayed events emit no recommendations.
// Takes are acknowledged (net/rpc_server.h), so a recommendation the
// broker acknowledged before the crash was delivered. Two kinds died with
// the process and are NOT re-emitted: those held in the server's last,
// unacknowledged reply to each broker, and those emitted but not yet
// taken. That is a
// known gap until recovery logs the acknowledged take and re-runs the
// query half for exactly the unacknowledged events. Checkpoint = write a
// snapshot of D, then reclaim WAL segments and snapshots it supersedes.
// S is never persisted: Cluster::Create rebuilds it from the follow graph
// and then restores the process's one D through RecoverDynamicState, once
// per process however many partitions and replicas it hosts. A killed
// replica reads that same D when it rejoins, so it needs no recovery of
// its own.
//
// Recovery is deterministic: D is a pure function of the event stream, so
// snapshot-load + replay reproduces exactly the state an uninterrupted run
// would have had (tests/persist/recovery_test.cc asserts byte-identical
// recommendations across a restarted one-partition Cluster).

#ifndef MAGICRECS_PERSIST_RECOVERY_H_
#define MAGICRECS_PERSIST_RECOVERY_H_

#include <cstdint>
#include <string>

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

  /// Rebuilds `window`'s D: clears it, restores the newest snapshot's D (if
  /// any), then replays the WAL tail the snapshot does not cover through
  /// Ingest. S is untouched; it is rebuilt from the follow graph, never
  /// persisted. A directory with no snapshot and no WAL is a valid cold
  /// start (empty state, OK). stats->next_sequence is where live ingest
  /// resumes. Resets and fills *stats.
  Status RecoverDynamicState(WindowStage* window, RecoveryStats* stats) const;

  /// Writes a snapshot of `window`'s D covering sequences
  /// [0, next_sequence), then deletes the WAL segments and older snapshots
  /// it supersedes. The caller must be quiesced: `window` must have applied
  /// exactly the events below `next_sequence`.
  Status Checkpoint(const WindowStage& window, uint32_t partition_id,
                    uint64_t next_sequence, Timestamp created_at) const;

  const PersistOptions& options() const { return options_; }

 private:
  /// Replays WAL records with sequence >= min_sequence into `window`,
  /// accounting into *stats (including the post-replay next_sequence).
  Status ReplayFrom(uint64_t min_sequence, WindowStage* window,
                    RecoveryStats* stats) const;

  PersistOptions options_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_PERSIST_RECOVERY_H_
