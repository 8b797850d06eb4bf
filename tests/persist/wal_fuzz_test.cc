// Byte sweep of the write-ahead log: a small log of two segments is cut at
// every byte offset, as a crash mid-append leaves it, and separately has
// every byte flipped. After each damage ReplayWal must either deliver an
// exact prefix of the written events (clean_tail false when the damage sits
// inside the final segment) or return Corruption when a non-final segment
// is damaged; it never delivers an event that was not written. Then
// WalWriter::Open must repair the tail, and one more Append must replay as
// that prefix plus the new event.
//
// The events are seeded; failures print the seed, rerun with
// MAGICRECS_FUZZ_SEED=<seed>.

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/file_util.h"
#include "persist/wal.h"
#include "scoped_temp_dir.h"
#include "util/random.h"

namespace magicrecs {
namespace {

namespace fs = std::filesystem;

uint64_t BaseSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 2468;
}

constexpr size_t kHeaderBytes = 8;  // segment magic
constexpr int kEvents = 7;

/// Rotates after the fourth record: four records in the first segment,
/// three in the second.
PersistOptions SweepOptions(const std::string& dir) {
  PersistOptions options;
  options.dir = dir;
  options.wal_segment_bytes = kHeaderBytes + 4 * (8 + 25);
  return options;
}

/// Events with every field random, ids up to kInvalidVertex, timestamps of
/// either sign, and sequences rising by random gaps.
std::vector<EdgeEvent> RandomEvents(uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeEvent> events(kEvents);
  uint64_t sequence = rng.UniformInt(1'000);
  for (EdgeEvent& event : events) {
    event.edge.src = static_cast<VertexId>(rng.NextUint64());
    event.edge.dst = rng.UniformInt(4) == 0
                         ? kInvalidVertex
                         : static_cast<VertexId>(rng.NextUint64());
    event.edge.created_at = static_cast<Timestamp>(rng.NextUint64());
    event.action = static_cast<ActionType>(rng.UniformInt(3));
    event.sequence = sequence;
    sequence += rng.UniformInt(3);
  }
  return events;
}

bool SameEvent(const EdgeEvent& a, const EdgeEvent& b) {
  return a.edge == b.edge && a.action == b.action && a.sequence == b.sequence;
}

struct Replayed {
  Status status;
  std::vector<EdgeEvent> events;
  WalReplayStats stats;
};

Replayed Replay(const std::string& dir) {
  Replayed r;
  r.status = ReplayWal(
      dir, 0,
      [&](const EdgeEvent& e) {
        r.events.push_back(e);
        return Status::OK();
      },
      &r.stats);
  return r;
}

/// True iff `got` is exactly written[0, got.size()).
bool IsPrefix(const std::vector<EdgeEvent>& got,
              const std::vector<EdgeEvent>& written) {
  if (got.size() > written.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameEvent(got[i], written[i])) return false;
  }
  return true;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The two segments of the swept log, the events in it, and where each
/// record ends in the segments' concatenation.
struct SweptLog {
  std::vector<EdgeEvent> events;
  std::string first;   // wal-000001.log
  std::string second;  // wal-000002.log
  std::vector<size_t> record_ends;

  size_t size() const { return first.size() + second.size(); }
  std::string bytes() const { return first + second; }

  /// Records wholly inside the first `len` bytes of the concatenation.
  size_t RecordsWithin(size_t len) const {
    size_t n = 0;
    while (n < record_ends.size() && record_ends[n] <= len) ++n;
    return n;
  }
};

/// Ends of the records of one segment, shifted by `offset`, read from the
/// records' own length prefixes.
void AppendRecordEnds(const std::string& segment, size_t offset,
                      std::vector<size_t>* ends) {
  for (size_t pos = kHeaderBytes; pos + 8 <= segment.size();) {
    uint32_t payload_len = 0;
    std::memcpy(&payload_len, segment.data() + pos, sizeof(payload_len));
    pos += 8 + payload_len;
    ends->push_back(offset + pos);
  }
}

SweptLog WriteLog(const std::string& dir, uint64_t seed) {
  SweptLog log;
  log.events = RandomEvents(seed);
  auto writer = WalWriter::Open(SweepOptions(dir));
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (const EdgeEvent& event : log.events) {
    EXPECT_TRUE((*writer)->Append(event).ok());
  }
  EXPECT_TRUE((*writer)->Close().ok());
  const std::vector<std::string> segments = ListWalSegments(dir);
  EXPECT_EQ(segments.size(), 2u);
  log.first = *persist::ReadFileToString(segments[0]);
  log.second = *persist::ReadFileToString(segments[1]);
  AppendRecordEnds(log.first, 0, &log.record_ends);
  AppendRecordEnds(log.second, log.first.size(), &log.record_ends);
  EXPECT_EQ(log.record_ends.size(), log.events.size());
  return log;
}

/// Lays `first` (and `second`, unless null) down as a fresh log in `dir`.
void LayDown(const std::string& dir, const std::string& first,
             const std::string* second) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  WriteFile(dir + "/wal-000001.log", first);
  if (second != nullptr) WriteFile(dir + "/wal-000002.log", *second);
}

/// Reopens the damaged log, appends one event after what replay delivered,
/// and checks the log now replays as `prefix` plus that event.
void CheckRepairAndAppend(const std::string& dir,
                          const std::vector<EdgeEvent>& prefix) {
  auto writer = WalWriter::Open(SweepOptions(dir));
  ASSERT_TRUE(writer.ok()) << writer.status();
  const uint64_t next = prefix.empty() ? 0 : prefix.back().sequence + 1;
  EXPECT_EQ((*writer)->recovered_next_sequence(), next);
  EdgeEvent extra;
  extra.edge = TimestampedEdge{11, 22, 33};
  extra.action = ActionType::kFavorite;
  extra.sequence = next;
  ASSERT_TRUE((*writer)->Append(extra).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  std::vector<EdgeEvent> want = prefix;
  want.push_back(extra);
  const Replayed after = Replay(dir);
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_TRUE(after.stats.clean_tail);
  ASSERT_EQ(after.events.size(), want.size());
  EXPECT_TRUE(IsPrefix(after.events, want));
}

TEST(WalFuzzTest, EveryCutReplaysAPrefixAndRepairs) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  ScopedTempDir tmp;
  const SweptLog log = WriteLog(tmp.path() + "/written", seed);
  ASSERT_FALSE(HasFailure());
  const std::string bytes = log.bytes();
  const std::string dir = tmp.path() + "/damaged";

  // A cut inside the first segment leaves no second one: it was created
  // only once the first filled up.
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    if (cut <= log.first.size()) {
      LayDown(dir, bytes.substr(0, cut), nullptr);
    } else {
      const std::string second = bytes.substr(log.first.size(),
                                              cut - log.first.size());
      LayDown(dir, log.first, &second);
    }
    const size_t kept = log.RecordsWithin(cut);
    // The cut is clean where it ends a record or a whole segment header.
    const bool clean = cut == kHeaderBytes ||
                       cut == log.first.size() + kHeaderBytes ||
                       (kept > 0 && log.record_ends[kept - 1] == cut);
    const Replayed r = Replay(dir);
    ASSERT_TRUE(r.status.ok()) << r.status;
    ASSERT_EQ(r.events.size(), kept);
    ASSERT_TRUE(IsPrefix(r.events, log.events));
    EXPECT_EQ(r.stats.clean_tail, clean);
    EXPECT_EQ(r.stats.events_applied, kept);
    CheckRepairAndAppend(dir, r.events);
    if (HasFatalFailure()) return;
  }
}

TEST(WalFuzzTest, EveryByteFlipIsCorruptionOrAPrefixAndRepairs) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  ScopedTempDir tmp;
  const SweptLog log = WriteLog(tmp.path() + "/written", seed);
  ASSERT_FALSE(HasFailure());
  const std::string dir = tmp.path() + "/damaged";

  for (size_t at = 0; at < log.size(); ++at) {
    SCOPED_TRACE("byte " + std::to_string(at) + " flipped");
    std::string bytes = log.bytes();
    bytes[at] = static_cast<char>(bytes[at] ^ 0xFF);
    const std::string first = bytes.substr(0, log.first.size());
    const std::string second = bytes.substr(log.first.size());
    LayDown(dir, first, &second);
    const Replayed r = Replay(dir);
    ASSERT_TRUE(IsPrefix(r.events, log.events));
    if (at < log.first.size()) {
      // Damage before the final segment is data loss, never a torn tail:
      // replay refuses, and so does every replay after a repair.
      ASSERT_TRUE(r.status.IsCorruption()) << r.status;
      auto writer = WalWriter::Open(SweepOptions(dir));
      ASSERT_TRUE(writer.ok()) << writer.status();
      EdgeEvent extra;
      extra.sequence = (*writer)->recovered_next_sequence();
      ASSERT_TRUE((*writer)->Append(extra).ok());
      ASSERT_TRUE((*writer)->Close().ok());
      EXPECT_TRUE(Replay(dir).status.IsCorruption());
      continue;
    }
    // In the final segment: every record before the damaged one, no more.
    ASSERT_TRUE(r.status.ok()) << r.status;
    const size_t kept = at < log.first.size() + kHeaderBytes
                            ? log.RecordsWithin(log.first.size())
                            : log.RecordsWithin(at);
    ASSERT_EQ(r.events.size(), kept);
    EXPECT_FALSE(r.stats.clean_tail);
    CheckRepairAndAppend(dir, r.events);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace magicrecs
