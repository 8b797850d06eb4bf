// Byte sweep of the D decoder: a small DynamicInEdgeIndex encoding is
// truncated at every offset and has every byte flipped, both as raw bytes
// and inside a snapshot file read back through ReadSnapshot. Every result
// must be Corruption with the index unchanged, or a success whose
// re-encoding decodes to the same state and whose rebuilt expiry queue
// covers every decoded edge. A restore-then-stream check pins that a
// restored index continues exactly as one that ingested the whole stream.
//
// The stream is seeded; failures print the seed, rerun with
// MAGICRECS_FUZZ_SEED=<seed>.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dynamic_graph.h"
#include "persist/snapshot.h"
#include "scoped_temp_dir.h"
#include "util/random.h"

namespace magicrecs {
namespace {

uint64_t BaseSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 4321;
}

DynamicGraphOptions SweepOptions() {
  DynamicGraphOptions options;
  options.window = Seconds(10);
  options.max_in_edges_per_vertex = 4;
  return options;
}

/// Feeds `count` random edges over `targets` destinations into `index`,
/// time mostly advancing, one step in five going back by up to 3 s.
void Stream(Rng* rng, int count, uint64_t targets, Timestamp* now,
            DynamicInEdgeIndex* index) {
  for (int i = 0; i < count; ++i) {
    const bool back = rng->UniformInt(5) == 0;
    const auto step = static_cast<Duration>(
        rng->UniformInt(static_cast<uint64_t>(back ? Seconds(3) : Seconds(2))));
    *now += back ? -step : step;
    const auto src = static_cast<VertexId>(rng->UniformInt(30));
    const auto dst = static_cast<VertexId>(rng->UniformInt(targets));
    ASSERT_TRUE(index->Insert(src, dst, *now).ok());
  }
}

std::string Encode(const DynamicInEdgeIndex& index) {
  std::string bytes;
  index.EncodeTo(&bytes);
  return bytes;
}

Status Decode(const std::string& bytes, DynamicInEdgeIndex* index) {
  return index->DecodeFrom(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
}

/// An index holding other state than any mutated input decodes to, so a
/// Corruption that half-applied would show.
DynamicInEdgeIndex Sentinel() {
  DynamicInEdgeIndex index(SweepOptions());
  EXPECT_TRUE(index.Insert(7, 900, Seconds(1)).ok());
  EXPECT_TRUE(index.Insert(8, 901, Seconds(2)).ok());
  return index;
}

/// Decodes `bytes` into a sentinel index and checks the sweep's property.
/// Returns true on a successful decode.
bool CheckDecode(const std::string& bytes, const std::string& what) {
  SCOPED_TRACE(what);
  DynamicInEdgeIndex index = Sentinel();
  const std::string before = Encode(index);
  const DynamicGraphStats before_stats = index.stats();
  const Status s = Decode(bytes, &index);
  if (!s.ok()) {
    EXPECT_TRUE(s.IsCorruption()) << s;
    EXPECT_EQ(Encode(index), before);
    EXPECT_EQ(index.stats().inserted, before_stats.inserted);
    EXPECT_EQ(index.stats().current_edges, before_stats.current_edges);
    EXPECT_EQ(index.stats().tracked_vertices, before_stats.tracked_vertices);
    return false;
  }
  const std::string once = Encode(index);
  DynamicInEdgeIndex again(SweepOptions());
  EXPECT_TRUE(Decode(once, &again).ok());
  EXPECT_EQ(Encode(again), once);
  EXPECT_EQ(again.stats().current_edges, index.stats().current_edges);
  EXPECT_EQ(again.stats().tracked_vertices, index.stats().tracked_vertices);
  // The rebuilt expiry queue names every decoded edge: an edge at the end
  // of time expires all of them.
  const uint64_t decoded = index.stats().current_edges;
  EXPECT_TRUE(
      index.Insert(1, 1, std::numeric_limits<Timestamp>::max()).ok());
  EXPECT_EQ(index.stats().pruned, decoded);
  EXPECT_EQ(index.stats().current_edges, 1u);
  EXPECT_EQ(index.stats().tracked_vertices, 1u);
  return true;
}

/// The small encoding every sweep mutates: about a dozen logs.
std::string SmallEncoding(uint64_t seed) {
  Rng rng(seed);
  DynamicInEdgeIndex index(SweepOptions());
  Timestamp now = Seconds(100);
  Stream(&rng, 40, 16, &now, &index);
  return Encode(index);
}

TEST(DynamicCodecFuzzTest, EveryTruncationAndByteFlipIsCaughtOrStable) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  const std::string bytes = SmallEncoding(seed);
  ASSERT_GT(bytes.size(), 100u);
  ASSERT_TRUE(CheckDecode(bytes, "unmutated"));

  for (size_t len = 0; len < bytes.size(); ++len) {
    // A prefix always lacks part of a log the count promised.
    EXPECT_FALSE(CheckDecode(bytes.substr(0, len),
                             "truncated to " + std::to_string(len)));
  }
  size_t accepted = 0;
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    accepted +=
        CheckDecode(flipped, "byte " + std::to_string(at) + " flipped");
  }
  RecordProperty("encoding_bytes", std::to_string(bytes.size()));
  RecordProperty("accepted_flips", std::to_string(accepted));
  // Flipped source ids and low timestamp bytes still decode: the success
  // branch ran, not only the Corruption one.
  EXPECT_GT(accepted, 0u);
}

TEST(DynamicCodecFuzzTest, SnapshotFileSweepThroughReadSnapshot) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  ScopedTempDir dir;
  Rng rng(seed);
  DynamicInEdgeIndex index(SweepOptions());
  Timestamp now = Seconds(100);
  Stream(&rng, 40, 16, &now, &index);
  const std::string path = dir.path() + "/" + SnapshotFileName(40);
  SnapshotMeta meta;
  meta.partition_id = 3;
  meta.next_sequence = 40;
  meta.created_at = now;
  ASSERT_TRUE(WriteSnapshot(path, meta, index).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(file.empty());

  const auto read_mutated = [&](const std::string& bytes,
                                const std::string& what) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    const auto contents = ReadSnapshot(path);
    if (!contents.ok()) return false;  // refused with a Status: fine
    CheckDecode(contents->dynamic_bytes, what);
    return true;
  };
  ASSERT_TRUE(read_mutated(file, "unmutated"));
  for (size_t len = 0; len < file.size(); ++len) {
    EXPECT_FALSE(read_mutated(file.substr(0, len),
                              "file truncated to " + std::to_string(len)));
  }
  for (size_t at = 0; at < file.size(); ++at) {
    std::string flipped = file;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    read_mutated(flipped, "file byte " + std::to_string(at) + " flipped");
  }
}

TEST(DynamicCodecFuzzTest, RestoredIndexStreamsLikeTheOriginal) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE("MAGICRECS_FUZZ_SEED=" + std::to_string(seed));
  constexpr uint64_t kTargets = 40;
  for (const int split : {1, 50, 300}) {
    SCOPED_TRACE("split after " + std::to_string(split) + " events");
    Rng whole_rng(seed);
    DynamicInEdgeIndex whole(SweepOptions());
    Timestamp whole_now = Seconds(100);
    Stream(&whole_rng, split, kTargets, &whole_now, &whole);

    DynamicInEdgeIndex restored(SweepOptions());
    ASSERT_TRUE(Decode(Encode(whole), &restored).ok());
    const auto expect_same_size = [&](int event) {
      EXPECT_EQ(restored.stats().current_edges, whole.stats().current_edges)
          << "event " << event;
      EXPECT_EQ(restored.stats().tracked_vertices,
                whole.stats().tracked_vertices)
          << "event " << event;
    };
    // First an edge older than the window, to a destination without a log:
    // only the restored watermark can tell that it arrives expired.
    for (DynamicInEdgeIndex* index : {&whole, &restored}) {
      ASSERT_TRUE(index->Insert(1, kTargets, whole_now - Seconds(11)).ok());
    }
    expect_same_size(-1);
    Rng restored_rng = whole_rng;
    Timestamp restored_now = whole_now;
    for (int i = 0; i < 300; ++i) {
      Stream(&whole_rng, 1, kTargets, &whole_now, &whole);
      Stream(&restored_rng, 1, kTargets, &restored_now, &restored);
      expect_same_size(i);
    }
    EXPECT_EQ(Encode(restored), Encode(whole));
    std::vector<TimestampedInEdge> expected;
    std::vector<TimestampedInEdge> actual;
    for (VertexId dst = 0; dst < kTargets; ++dst) {
      for (const Duration back : {Duration{0}, Seconds(3), Seconds(8)}) {
        whole.GetRecentInEdges(dst, whole_now - back, &expected);
        restored.GetRecentInEdges(dst, whole_now - back, &actual);
        EXPECT_EQ(actual, expected) << "dst " << dst;
      }
    }
  }
}

}  // namespace
}  // namespace magicrecs
