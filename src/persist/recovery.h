// Crash recovery for durable partitions: restore = load the newest snapshot
// (if any), then replay WAL records from the snapshot's sequence cutoff —
// ingest-only, since recommendations for replayed events were already
// delivered before the crash. Checkpoint = write a snapshot of the current
// state, then reclaim WAL segments and snapshots it supersedes.
//
// Recovery is deterministic: D is a pure function of the event stream, so
// snapshot-load + replay reproduces exactly the state an uninterrupted run
// would have had (tests/persist/recovery_test.cc asserts byte-identical
// recommendations).

#ifndef MAGICRECS_PERSIST_RECOVERY_H_
#define MAGICRECS_PERSIST_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cluster/partition_server.h"
#include "core/engine.h"
#include "core/motif_engine.h"
#include "persist/persist_options.h"
#include "persist/snapshot.h"
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

  /// Rebuilds a full single-machine engine — S from the snapshot's static
  /// section, D from its dynamic section + WAL replay. Requires a snapshot
  /// carrying S (written via Checkpoint with a non-null follower_index);
  /// FailedPrecondition otherwise.
  Result<std::unique_ptr<RecommenderEngine>> RecoverEngine(
      const EngineOptions& options, RecoveryStats* stats) const;

  /// Restores the dynamic state of an engine the caller already rebuilt
  /// from the follow graph (the common restart path when the offline graph
  /// pipeline output is still at hand and the snapshot carries only D). A
  /// directory with no snapshot and no WAL is a valid cold start (empty
  /// state, OK).
  Status RecoverEngineState(RecommenderEngine* engine,
                            RecoveryStats* stats) const;

  /// Rebuilds a partition replica's dynamic state from snapshot + WAL; the
  /// immutable S shard is untouched. The server's next_sequence() reflects
  /// the replay afterwards.
  Status RecoverPartitionServer(PartitionServer* server,
                                RecoveryStats* stats) const;

  /// Writes a snapshot covering sequences [0, next_sequence), then deletes
  /// the WAL segments and older snapshots it supersedes. Pass a non-null
  /// `follower_index` to make the snapshot self-contained (enables
  /// RecoverEngine). The caller must be quiesced: `engine` must have
  /// applied exactly the events below `next_sequence`.
  Status Checkpoint(const MotifEngine& engine,
                    const StaticGraph* follower_index, uint32_t partition_id,
                    uint64_t next_sequence, Timestamp created_at) const;

  const PersistOptions& options() const { return options_; }

 private:
  /// RecoverEngineState and RecoverPartitionServer: loads the newest
  /// snapshot, then RebuildDynamicState. Resets and fills *stats.
  Status RecoverDynamicState(MotifEngine* engine, RecoveryStats* stats) const;

  /// Loads the newest snapshot into *contents (nullopt on a cold start) and
  /// accounts it in *stats.
  Status LoadLatestSnapshot(std::optional<SnapshotContents>* contents,
                            RecoveryStats* stats) const;

  /// The one restore path: clears `engine`'s D, restores the snapshot's D
  /// (if any), then replays the WAL tail the snapshot does not cover
  /// through Ingest, accounting into *stats.
  Status RebuildDynamicState(const std::optional<SnapshotContents>& snapshot,
                             MotifEngine* engine, RecoveryStats* stats) const;

  /// Replays WAL records with sequence >= min_sequence through `ingest`,
  /// accounting into *stats (including the post-replay next_sequence).
  Status ReplayFrom(uint64_t min_sequence,
                    const std::function<Status(const EdgeEvent&)>& ingest,
                    RecoveryStats* stats) const;

  PersistOptions options_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_PERSIST_RECOVERY_H_
