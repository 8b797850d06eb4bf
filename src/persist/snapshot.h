// Versioned binary snapshots of a partition's durable state: the dynamic
// in-edge index D, plus the sequence cutoff that tells recovery where WAL
// replay must resume. A snapshot holds D only; the static follower index S
// is rebuilt from the follow graph when a Cluster starts, never persisted.
//
// On-disk layout (little-endian):
//   snapshot := magic "MRSNAP01" (8)  version:u32  flags:u32
//               partition_id:u32  reserved:u32  next_sequence:u64
//               created_at:i64  section*
//   section  := tag:u32  payload_len:u64  payload  masked_crc32c(payload):u32
//
// flags must be exactly 0x2 (D present) and the D section (tag 2) is
// required. Version 1 also allowed flag 0x1 with an S section (tag 1);
// ReadSnapshot refuses such files: their S must be rebuilt from the follow
// graph. Sections with unknown tags are skipped.
//
// Snapshots are written to a temp file and renamed into place, so a crash
// mid-write never leaves a half snapshot under the canonical name. Files are
// named snap-<next_sequence, zero-padded>.snap; the lexicographically last
// file is the newest.

#ifndef MAGICRECS_PERSIST_SNAPSHOT_H_
#define MAGICRECS_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "graph/dynamic_graph.h"
#include "util/result.h"
#include "util/status.h"
#include "util/types.h"

namespace magicrecs {

/// Current snapshot format version. Readers reject newer versions.
inline constexpr uint32_t kSnapshotVersion = 1;

struct SnapshotMeta {
  uint32_t partition_id = 0;

  /// The first event sequence NOT covered by this snapshot: WAL replay after
  /// loading it resumes at exactly this sequence. 0 means "empty state".
  uint64_t next_sequence = 0;

  /// Caller-supplied creation time (virtual or wall clock).
  Timestamp created_at = 0;
};

/// A decoded snapshot file: metadata plus the raw D payload, ready for
/// DynamicInEdgeIndex::DecodeFrom.
struct SnapshotContents {
  SnapshotMeta meta;
  std::string dynamic_bytes;
};

/// Serializes `dynamic_index` to `path` (atomically, via temp + rename).
Status WriteSnapshot(const std::string& path, const SnapshotMeta& meta,
                     const DynamicInEdgeIndex& dynamic_index);

/// Reads and CRC-verifies a snapshot written by WriteSnapshot.
Result<SnapshotContents> ReadSnapshot(const std::string& path);

/// Canonical file name for a snapshot covering sequences [0, next_sequence).
std::string SnapshotFileName(uint64_t next_sequence);

/// Absolute path of the newest snapshot under `dir`; NotFound if none.
Result<std::string> FindLatestSnapshot(const std::string& dir);

/// Deletes snapshots older than (strictly before) `next_sequence`. Returns
/// the number removed. The newest snapshot should be passed as the cutoff so
/// it survives.
Result<size_t> RemoveSnapshotsBefore(const std::string& dir,
                                     uint64_t next_sequence);

}  // namespace magicrecs

#endif  // MAGICRECS_PERSIST_SNAPSHOT_H_
