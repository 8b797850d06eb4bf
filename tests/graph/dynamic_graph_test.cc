#include "graph/dynamic_graph.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace magicrecs {
namespace {

DynamicGraphOptions WindowOptions(Duration window) {
  DynamicGraphOptions opt;
  opt.window = window;
  return opt;
}

TEST(DynamicGraphTest, InsertAndQuery) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(1)).ok());
  ASSERT_TRUE(d.Insert(2, 100, Seconds(2)).ok());
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(2), &out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].src, 1u);
  EXPECT_EQ(out[1].src, 2u);
}

TEST(DynamicGraphTest, UnknownVertexHasNoEdges) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(42, Seconds(100), &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(DynamicGraphTest, WindowExcludesOldEdges) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(0)).ok());
  ASSERT_TRUE(d.Insert(2, 100, Seconds(5)).ok());
  std::vector<TimestampedInEdge> out;
  // At t=12s the t=0 edge is outside (2, 12].
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(12), &out), 1u);
  EXPECT_EQ(out[0].src, 2u);
}

TEST(DynamicGraphTest, WindowBoundaryIsExclusiveAtCutoff) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(0)).ok());
  std::vector<TimestampedInEdge> out;
  // cutoff = 10 - 10 = 0; created_at must be > cutoff, so exactly-at-cutoff
  // is excluded.
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(10), &out), 0u);
  // One microsecond earlier it is still visible.
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(10) - 1, &out), 1u);
}

TEST(DynamicGraphTest, FutureEdgesNotVisibleInThePast) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(5)).ok());
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(3), &out), 0u);
}

TEST(DynamicGraphTest, DuplicateSourceKeepsLatestTimestamp) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(100)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(1)).ok());
  ASSERT_TRUE(d.Insert(1, 100, Seconds(7)).ok());
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(10), &out), 1u);
  EXPECT_EQ(out[0].src, 1u);
  EXPECT_EQ(out[0].created_at, Seconds(7));
}

TEST(DynamicGraphTest, ResultsSortedBySource) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(100)));
  ASSERT_TRUE(d.Insert(9, 100, Seconds(1)).ok());
  ASSERT_TRUE(d.Insert(3, 100, Seconds(2)).ok());
  ASSERT_TRUE(d.Insert(7, 100, Seconds(3)).ok());
  std::vector<TimestampedInEdge> out;
  d.GetRecentInEdges(100, Seconds(5), &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].src, 3u);
  EXPECT_EQ(out[1].src, 7u);
  EXPECT_EQ(out[2].src, 9u);
}

TEST(DynamicGraphTest, PerVertexCapEvictsOldest) {
  DynamicGraphOptions opt = WindowOptions(Hours(1));
  opt.max_in_edges_per_vertex = 3;
  DynamicInEdgeIndex d(opt);
  for (VertexId b = 0; b < 10; ++b) {
    ASSERT_TRUE(d.Insert(b, 100, Seconds(b)).ok());
  }
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(20), &out), 3u);
  EXPECT_EQ(out[0].src, 7u);  // only the 3 most recent survive
  EXPECT_EQ(d.stats().evicted, 7u);
}

TEST(DynamicGraphTest, InsertPrunesExpired) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(0)).ok());
  ASSERT_TRUE(d.Insert(2, 100, Seconds(30)).ok());
  EXPECT_EQ(d.stats().pruned, 1u);
  EXPECT_EQ(d.stats().current_edges, 1u);
}

TEST(DynamicGraphTest, LaterInsertReleasesOtherDestinations) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(0)).ok());
  ASSERT_TRUE(d.Insert(2, 200, Seconds(1)).ok());
  const size_t two_logs = d.MemoryUsage();
  // An edge to a third destination moves the watermark past both.
  ASSERT_TRUE(d.Insert(3, 300, Seconds(60)).ok());
  EXPECT_EQ(d.stats().pruned, 2u);
  EXPECT_EQ(d.stats().current_edges, 1u);
  EXPECT_EQ(d.stats().tracked_vertices, 1u);
  EXPECT_LT(d.MemoryUsage(), two_logs);
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(5), &out), 0u);
}

TEST(DynamicGraphTest, LateEventLosesWhatTheWatermarkExpired) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(0)).ok());
  ASSERT_TRUE(d.Insert(2, 100, Seconds(8)).ok());
  ASSERT_TRUE(d.Insert(3, 200, Seconds(20)).ok());  // expires 100's log
  // A late edge to 100 at 15s: its query window (5s, 15s] would hold the
  // 8s edge, but the watermark already expired it.
  ASSERT_TRUE(d.Insert(4, 100, Seconds(15)).ok());
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(15), &out), 1u);
  EXPECT_EQ(out[0].src, 4u);
  // An edge at or before watermark - window is counted but never stored.
  ASSERT_TRUE(d.Insert(5, 400, Seconds(10)).ok());
  EXPECT_EQ(d.GetRecentInEdges(400, Seconds(10), &out), 0u);
  EXPECT_EQ(d.stats().inserted, 5u);
  EXPECT_EQ(d.stats().pruned, 3u);
  EXPECT_EQ(d.stats().current_edges, 2u);
  EXPECT_EQ(d.stats().tracked_vertices, 2u);
}

TEST(DynamicGraphTest, ExtremeTimestampsDoNotOverflowTheCutoff) {
  // Stream timestamps come off the wire: the window arithmetic saturates
  // instead of overflowing at either end of the range.
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, kMin + 1).ok());
  ASSERT_TRUE(d.Insert(2, 100, kMin + 2).ok());
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, kMin + 2, &out), 2u);
  ASSERT_TRUE(d.Insert(3, 200, kMax).ok());
  EXPECT_EQ(d.stats().current_edges, 1u);
  EXPECT_EQ(d.GetRecentInEdges(200, kMax, &out), 1u);
}

TEST(DynamicGraphTest, TableGrowsAndShrinksWithTheWindow) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(1)));
  ASSERT_TRUE(d.Insert(1, 1, 0).ok());
  const size_t idle = d.MemoryUsage();
  // A burst of 10k destinations inside one window, then a quiet stream to
  // one destination: the table and the queue follow the window back down.
  for (VertexId v = 2; v <= 10'000; ++v) {
    ASSERT_TRUE(d.Insert(1, v, Millis(v / 100)).ok());
  }
  EXPECT_EQ(d.stats().tracked_vertices, 10'000u);
  const size_t burst = d.MemoryUsage();
  EXPECT_GT(burst, 10 * idle);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(d.Insert(1, 1, Seconds(10 + i)).ok());
  }
  EXPECT_EQ(d.stats().tracked_vertices, 1u);
  EXPECT_EQ(d.stats().current_edges, 1u);
  EXPECT_LT(d.MemoryUsage(), 2 * idle);
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(1, Seconds(109), &out), 1u);
  EXPECT_EQ(out[0].created_at, Seconds(109));
}

TEST(DynamicGraphTest, StrictTimeOrderRejectsRegression) {
  DynamicGraphOptions opt = WindowOptions(Seconds(10));
  opt.strict_time_order = true;
  DynamicInEdgeIndex d(opt);
  ASSERT_TRUE(d.Insert(1, 100, Seconds(5)).ok());
  const Status s = d.Insert(2, 100, Seconds(3));
  EXPECT_TRUE(s.IsFailedPrecondition()) << s;

  // A refused insert changes nothing, not even by the expiry an accepted
  // one runs first. Restored from a one-hour window's state, 100's log lies
  // outside this index's window of the restored watermark, so an expiry
  // would drop it.
  DynamicInEdgeIndex wide(WindowOptions(Hours(1)));
  ASSERT_TRUE(wide.Insert(1, 100, 0).ok());
  ASSERT_TRUE(wide.Insert(2, 200, Seconds(100)).ok());
  std::string bytes;
  wide.EncodeTo(&bytes);
  ASSERT_TRUE(
      d.DecodeFrom(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size())
          .ok());
  const DynamicGraphStats before = d.stats();
  const Status late = d.Insert(3, 100, -Seconds(1));
  EXPECT_TRUE(late.IsFailedPrecondition()) << late;
  EXPECT_EQ(d.stats().inserted, before.inserted);
  EXPECT_EQ(d.stats().pruned, before.pruned);
  EXPECT_EQ(d.stats().evicted, before.evicted);
  EXPECT_EQ(d.stats().current_edges, before.current_edges);
  EXPECT_EQ(d.stats().tracked_vertices, before.tracked_vertices);
  std::string after;
  d.EncodeTo(&after);
  EXPECT_EQ(after, bytes);
  std::vector<TimestampedInEdge> out;
  ASSERT_EQ(d.GetRecentInEdges(100, 0, &out), 1u);
  EXPECT_EQ(out[0].src, 1u);
  EXPECT_EQ(out[0].created_at, 0);
}

TEST(DynamicGraphTest, TolerantModeClampsRegression) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(5)).ok());
  ASSERT_TRUE(d.Insert(2, 100, Seconds(3)).ok());  // clamped to t=5
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(5), &out), 2u);
}

TEST(DynamicGraphTest, IndependentTargets) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(1)).ok());
  ASSERT_TRUE(d.Insert(1, 200, Seconds(2)).ok());
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(3), &out), 1u);
  EXPECT_EQ(d.GetRecentInEdges(200, Seconds(3), &out), 1u);
}

TEST(DynamicGraphTest, InvalidVertexRejected) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  EXPECT_TRUE(d.Insert(kInvalidVertex, 1, 0).IsInvalidArgument());
  EXPECT_TRUE(d.Insert(1, kInvalidVertex, 0).IsInvalidArgument());
}

TEST(DynamicGraphTest, RepeatSourceCountsOnce) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  ASSERT_TRUE(d.Insert(1, 100, Seconds(1)).ok());
  ASSERT_TRUE(d.Insert(2, 100, Seconds(2)).ok());
  ASSERT_TRUE(d.Insert(1, 100, Seconds(3)).ok());  // dup source
  std::vector<TimestampedInEdge> out;
  EXPECT_EQ(d.GetRecentInEdges(100, Seconds(5), &out), 2u);
}

TEST(DynamicGraphTest, StatsTrackInsertions) {
  DynamicInEdgeIndex d(WindowOptions(Seconds(10)));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(d.Insert(static_cast<VertexId>(i), 9, Seconds(i)).ok());
  }
  const DynamicGraphStats stats = d.stats();
  EXPECT_EQ(stats.inserted, 5u);
  EXPECT_EQ(stats.current_edges, 5u);
  EXPECT_EQ(stats.tracked_vertices, 1u);
}

TEST(DynamicGraphTest, MemoryGrowsWithRetainedEdges) {
  DynamicInEdgeIndex small(WindowOptions(Hours(1)));
  DynamicInEdgeIndex large(WindowOptions(Hours(1)));
  ASSERT_TRUE(small.Insert(0, 1, 0).ok());
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(
        large.Insert(static_cast<VertexId>(i), i % 50, Seconds(1)).ok());
  }
  EXPECT_GT(large.MemoryUsage(), small.MemoryUsage());
}

TEST(DynamicGraphTest, LongStreamMemoryBoundedByWindow) {
  // With a 1-second window and events arriving over an hour, retained edges
  // stay tiny even though a million were inserted.
  DynamicInEdgeIndex d(WindowOptions(Seconds(1)));
  Timestamp t = 0;
  for (int i = 0; i < 100'000; ++i) {
    t += Millis(36);  // 100k events over ~1 hour
    ASSERT_TRUE(d.Insert(static_cast<VertexId>(i % 97), 5, t).ok());
  }
  EXPECT_LT(d.stats().current_edges, 100u);
  EXPECT_GT(d.stats().pruned, 99'000u);
}

}  // namespace
}  // namespace magicrecs
