#include "persist/snapshot.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/codec.h"
#include "persist/crc32.h"
#include "scoped_temp_dir.h"

namespace magicrecs {
namespace {

namespace fs = std::filesystem;

TEST(DynamicIndexCodecTest, RoundTripPreservesRecentEdges) {
  DynamicGraphOptions options;
  options.window = Minutes(10);
  DynamicInEdgeIndex index(options);
  ASSERT_TRUE(index.Insert(1, 100, Seconds(10)).ok());
  ASSERT_TRUE(index.Insert(2, 100, Seconds(20)).ok());
  ASSERT_TRUE(index.Insert(3, 200, Seconds(30)).ok());

  std::string bytes;
  index.EncodeTo(&bytes);
  DynamicInEdgeIndex restored(options);
  ASSERT_TRUE(restored
                  .DecodeFrom(reinterpret_cast<const uint8_t*>(bytes.data()),
                              bytes.size())
                  .ok());

  std::vector<TimestampedInEdge> expected;
  std::vector<TimestampedInEdge> actual;
  for (const VertexId dst : {100u, 200u, 300u}) {
    index.GetRecentInEdges(dst, Seconds(30), &expected);
    restored.GetRecentInEdges(dst, Seconds(30), &actual);
    EXPECT_EQ(actual, expected) << "dst=" << dst;
  }
  EXPECT_EQ(restored.stats().current_edges, 3u);
}

TEST(DynamicIndexCodecTest, EncodingIsDeterministic) {
  DynamicGraphOptions options;
  DynamicInEdgeIndex a(options);
  DynamicInEdgeIndex b(options);
  // Same content inserted in different orders (per-destination time order
  // still holds, as the stream contract requires).
  ASSERT_TRUE(a.Insert(1, 10, Seconds(1)).ok());
  ASSERT_TRUE(a.Insert(2, 20, Seconds(2)).ok());
  ASSERT_TRUE(a.Insert(3, 10, Seconds(3)).ok());
  ASSERT_TRUE(b.Insert(2, 20, Seconds(2)).ok());
  ASSERT_TRUE(b.Insert(1, 10, Seconds(1)).ok());
  ASSERT_TRUE(b.Insert(3, 10, Seconds(3)).ok());

  std::string bytes_a;
  std::string bytes_b;
  a.EncodeTo(&bytes_a);
  b.EncodeTo(&bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(DynamicIndexCodecTest, InvalidVertexIdIsCorruption) {
  // Insert refuses kInvalidVertex, so an encoding carrying it as either
  // endpoint cannot come from EncodeTo: decoding must fail, not restore it.
  const auto forge = [](VertexId dst, VertexId src) {
    std::string bytes;
    persist::PutU64(&bytes, 1);  // one log
    persist::PutU32(&bytes, dst);
    persist::PutU64(&bytes, 1);  // one entry
    persist::PutU32(&bytes, src);
    persist::PutI64(&bytes, Seconds(1));
    return bytes;
  };
  DynamicInEdgeIndex index;
  ASSERT_TRUE(index.Insert(1, 10, Seconds(1)).ok());
  std::vector<TimestampedInEdge> out;
  for (const std::string& bytes :
       {forge(kInvalidVertex, 1), forge(10, kInvalidVertex)}) {
    const Status s = index.DecodeFrom(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    EXPECT_TRUE(s.IsCorruption()) << s;
    // The failed decode left the index as it was.
    EXPECT_EQ(index.GetRecentInEdges(10, Seconds(1), &out), 1u);
  }
  // The same bytes with valid ids decode.
  const std::string valid = forge(10, 1);
  EXPECT_TRUE(index
                  .DecodeFrom(reinterpret_cast<const uint8_t*>(valid.data()),
                              valid.size())
                  .ok());
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    hex.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return hex;
}

TEST(DynamicIndexCodecTest, EncodingBytesArePinned) {
  // A checkpoint written by an earlier build must restore in this one, and
  // this one's must restore in the earlier: the bytes of a fixed stream are
  // pinned, whatever layout D keeps in memory. The stream repeats sources,
  // puts equal timestamps on different sources, clamps a late edge, evicts
  // by the per-vertex cap and expires a whole destination.
  DynamicGraphOptions options;
  options.window = Seconds(10);
  options.max_in_edges_per_vertex = 4;
  DynamicInEdgeIndex index(options);
  ASSERT_TRUE(index.Insert(1, 50, Millis(500)).ok());
  ASSERT_TRUE(index.Insert(5, 100, Seconds(1)).ok());
  ASSERT_TRUE(index.Insert(3, 100, Seconds(2)).ok());
  ASSERT_TRUE(index.Insert(5, 100, Seconds(2)).ok());
  ASSERT_TRUE(index.Insert(4, 100, Seconds(2)).ok());
  ASSERT_TRUE(index.Insert(5, 200, Seconds(2)).ok());
  ASSERT_TRUE(index.Insert(9, 200, Seconds(2)).ok());
  ASSERT_TRUE(index.Insert(3, 100, Seconds(3)).ok());     // evicts 5 @ 1 s
  ASSERT_TRUE(index.Insert(7, 100, Millis(1500)).ok());   // clamped to 3 s
  ASSERT_TRUE(index.Insert(5, 200, Seconds(4)).ok());
  ASSERT_TRUE(index.Insert(2, 300, Seconds(11)).ok());    // expires 50's log
  ASSERT_TRUE(index.Insert(5, 100, Seconds(11)).ok());
  ASSERT_EQ(index.stats().evicted, 3u);
  ASSERT_EQ(index.stats().pruned, 1u);

  // Three logs, each (dst, count, then (src, created_at) oldest first).
  const std::string golden =
      "0300000000000000"
      "64000000" "0400000000000000"
      "04000000" "80841e0000000000" "03000000" "c0c62d0000000000"
      "07000000" "c0c62d0000000000" "05000000" "c0d8a70000000000"
      "c8000000" "0300000000000000"
      "05000000" "80841e0000000000" "09000000" "80841e0000000000"
      "05000000" "00093d0000000000"
      "2c010000" "0100000000000000"
      "02000000" "c0d8a70000000000";
  std::string bytes;
  index.EncodeTo(&bytes);
  EXPECT_EQ(Hex(bytes), golden);

  // The pinned bytes restore to the same windows and re-encode unchanged.
  DynamicInEdgeIndex restored(options);
  ASSERT_TRUE(restored
                  .DecodeFrom(reinterpret_cast<const uint8_t*>(bytes.data()),
                              bytes.size())
                  .ok());
  std::string again;
  restored.EncodeTo(&again);
  EXPECT_EQ(Hex(again), golden);
  std::vector<TimestampedInEdge> expected;
  std::vector<TimestampedInEdge> actual;
  for (const VertexId dst : {50u, 100u, 200u, 300u}) {
    for (const Timestamp now : {Seconds(3), Seconds(11)}) {
      index.GetRecentInEdges(dst, now, &expected);
      restored.GetRecentInEdges(dst, now, &actual);
      EXPECT_EQ(actual, expected) << "dst=" << dst << " now=" << now;
    }
  }
}

TEST(DynamicIndexCodecTest, ClearDropsEverything) {
  DynamicInEdgeIndex index;
  ASSERT_TRUE(index.Insert(1, 10, Seconds(1)).ok());
  index.Clear();
  EXPECT_EQ(index.stats().current_edges, 0u);
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(index.GetRecentInEdges(10, Seconds(1), &out), 0u);
}

class SnapshotFileTest : public ::testing::Test {
 protected:
  std::string PathFor(uint64_t next_sequence) const {
    return dir_.path() + "/" + SnapshotFileName(next_sequence);
  }

  ScopedTempDir dir_;
};

TEST_F(SnapshotFileTest, FullRoundTrip) {
  DynamicInEdgeIndex index;
  ASSERT_TRUE(index.Insert(1, 100, Seconds(5)).ok());

  SnapshotMeta meta;
  meta.partition_id = 7;
  meta.next_sequence = 1234;
  meta.created_at = Seconds(99);
  ASSERT_TRUE(WriteSnapshot(PathFor(1234), meta, index).ok());

  auto contents = ReadSnapshot(PathFor(1234));
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->meta.partition_id, 7u);
  EXPECT_EQ(contents->meta.next_sequence, 1234u);
  EXPECT_EQ(contents->meta.created_at, Seconds(99));

  DynamicInEdgeIndex restored;
  ASSERT_TRUE(restored
                  .DecodeFrom(reinterpret_cast<const uint8_t*>(
                                  contents->dynamic_bytes.data()),
                              contents->dynamic_bytes.size())
                  .ok());
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(restored.GetRecentInEdges(100, Seconds(5), &out), 1u);
}

/// A snapshot in the version-1 layout, section by section: `flags`, then
/// each (tag, payload) with its masked CRC.
std::string HandBuiltSnapshot(
    uint32_t flags,
    const std::vector<std::pair<uint32_t, std::string>>& sections) {
  std::string blob = "MRSNAP01";
  persist::PutU32(&blob, 1);  // version
  persist::PutU32(&blob, flags);
  persist::PutU32(&blob, 3);  // partition_id
  persist::PutU32(&blob, 0);  // reserved
  persist::PutU64(&blob, 42);  // next_sequence
  persist::PutI64(&blob, Seconds(7));
  for (const auto& [tag, payload] : sections) {
    persist::PutU32(&blob, tag);
    persist::PutU64(&blob, payload.size());
    blob += payload;
    persist::PutU32(&blob, persist::MaskCrc(persist::Crc32c(payload.data(),
                                                            payload.size())));
  }
  return blob;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

TEST_F(SnapshotFileTest, WriterKeepsTheVersionOneDOnlyLayout) {
  // Every persist directory a daemon ever wrote holds exactly these bytes:
  // the writer must keep producing them, and the reader keep accepting them.
  DynamicInEdgeIndex index;
  ASSERT_TRUE(index.Insert(1, 100, Seconds(5)).ok());
  std::string d;
  index.EncodeTo(&d);
  SnapshotMeta meta;
  meta.partition_id = 3;
  meta.next_sequence = 42;
  meta.created_at = Seconds(7);
  ASSERT_TRUE(WriteSnapshot(PathFor(42), meta, index).ok());

  std::ifstream in(PathFor(42), std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, HandBuiltSnapshot(/*flags=*/0x2, {{2, d}}));
}

TEST_F(SnapshotFileTest, SCarryingSnapshotIsRefused) {
  // The S section of the version-1 layout: a 2-vertex CSR, edge 0 -> 1.
  std::string s;
  persist::PutU64(&s, 3);  // offsets
  persist::PutU64(&s, 1);  // targets
  for (const uint64_t offset : {0u, 1u, 1u}) persist::PutU64(&s, offset);
  persist::PutU32(&s, 1);
  DynamicInEdgeIndex index;
  ASSERT_TRUE(index.Insert(1, 100, Seconds(5)).ok());
  std::string d;
  index.EncodeTo(&d);
  WriteFile(PathFor(42), HandBuiltSnapshot(/*flags=*/0x3, {{1, s}, {2, d}}));

  auto contents = ReadSnapshot(PathFor(42));
  ASSERT_FALSE(contents.ok());
  EXPECT_TRUE(contents.status().IsInvalidArgument()) << contents.status();
  const std::string message = contents.status().ToString();
  EXPECT_NE(message.find(PathFor(42)), std::string::npos) << message;
  EXPECT_NE(message.find("rebuilt from the follow graph"), std::string::npos)
      << message;
}

TEST_F(SnapshotFileTest, MissingDSectionIsCorruption) {
  WriteFile(PathFor(42), HandBuiltSnapshot(/*flags=*/0x2, {}));
  EXPECT_TRUE(ReadSnapshot(PathFor(42)).status().IsCorruption());
}

TEST_F(SnapshotFileTest, FlippedPayloadByteIsDetected) {
  // Enough edges that the middle of the file is inside the D payload.
  DynamicInEdgeIndex index;
  for (VertexId src = 1; src <= 64; ++src) {
    ASSERT_TRUE(index.Insert(src, 100, Seconds(5)).ok());
  }
  SnapshotMeta meta;
  ASSERT_TRUE(WriteSnapshot(PathFor(5), meta, index).ok());

  const auto size = fs::file_size(PathFor(5));
  std::fstream f(PathFor(5), std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size / 2));
  const char original = static_cast<char>(f.get());
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.put(original ^ 0x40);
  f.close();

  auto contents = ReadSnapshot(PathFor(5));
  ASSERT_FALSE(contents.ok());
  EXPECT_TRUE(contents.status().IsCorruption()) << contents.status();
}

TEST_F(SnapshotFileTest, TruncatedFileIsDetected) {
  DynamicInEdgeIndex index;
  ASSERT_TRUE(index.Insert(1, 100, Seconds(5)).ok());
  SnapshotMeta meta;
  ASSERT_TRUE(WriteSnapshot(PathFor(5), meta, index).ok());
  fs::resize_file(PathFor(5), fs::file_size(PathFor(5)) - 3);
  EXPECT_TRUE(ReadSnapshot(PathFor(5)).status().IsCorruption());
}

TEST_F(SnapshotFileTest, FindLatestPicksHighestSequence) {
  DynamicInEdgeIndex index;
  SnapshotMeta meta;
  for (const uint64_t seq : {5u, 300u, 40u}) {
    meta.next_sequence = seq;
    ASSERT_TRUE(WriteSnapshot(PathFor(seq), meta, index).ok());
  }
  auto latest = FindLatestSnapshot(dir_.path());
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, PathFor(300));

  auto removed = RemoveSnapshotsBefore(dir_.path(), 300);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2u);
  EXPECT_TRUE(fs::exists(PathFor(300)));
  EXPECT_FALSE(fs::exists(PathFor(5)));
}

TEST_F(SnapshotFileTest, FindLatestOnEmptyDirIsNotFound) {
  EXPECT_TRUE(FindLatestSnapshot(dir_.path()).status().IsNotFound());
}

TEST_F(SnapshotFileTest, NoTempFileSurvivesAWrite) {
  DynamicInEdgeIndex index;
  SnapshotMeta meta;
  ASSERT_TRUE(WriteSnapshot(PathFor(9), meta, index).ok());
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_.path())) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".snap");
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace magicrecs
