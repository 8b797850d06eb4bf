#include "intersect/threshold.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace magicrecs {
namespace {

std::vector<std::span<const VertexId>> Spans(
    const std::vector<std::vector<VertexId>>& lists) {
  std::vector<std::span<const VertexId>> out;
  out.reserve(lists.size());
  for (const auto& l : lists) out.emplace_back(l);
  return out;
}

/// Naive reference: count occurrences across lists with a map, and mark
/// list i in the mask of every id it holds, for i < 64.
std::vector<ThresholdMatch> Reference(
    const std::vector<std::vector<VertexId>>& lists, size_t k) {
  std::map<VertexId, ThresholdMatch> counts;
  for (size_t i = 0; i < lists.size(); ++i) {
    for (const VertexId v : lists[i]) {
      ThresholdMatch& match = counts[v];
      match.id = v;
      ++match.count;
      if (i < 64) match.lists |= uint64_t{1} << i;
    }
  }
  std::vector<ThresholdMatch> out;
  for (const auto& [v, match] : counts) {
    if (match.count >= k) out.push_back(match);
  }
  return out;
}

class ThresholdTest : public ::testing::TestWithParam<ThresholdAlgorithm> {
 protected:
  std::vector<ThresholdMatch> Run(
      const std::vector<std::vector<VertexId>>& lists, size_t k) {
    std::vector<ThresholdMatch> out;
    const size_t n = ThresholdIntersect(Spans(lists), k, &out, GetParam());
    EXPECT_EQ(n, out.size());
    return out;
  }
};

TEST_P(ThresholdTest, EmptyInput) {
  EXPECT_TRUE(Run({}, 1).empty());
}

TEST_P(ThresholdTest, KLargerThanListCountIsEmpty) {
  EXPECT_TRUE(Run({{1, 2}, {2, 3}}, 3).empty());
}

TEST_P(ThresholdTest, KZeroTreatedAsOne) {
  const auto matches = Run({{1}, {2}}, 0);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].id, 1u);
  EXPECT_EQ(matches[1].id, 2u);
}

TEST_P(ThresholdTest, PaperWorkedExample) {
  // Figure 1 bottom half with k=2: followers(B1)={A1,A2}={0,1},
  // followers(B2)={A2,A3}={1,2}; the intersection is A2={1}.
  const auto matches = Run({{0, 1}, {1, 2}}, 2);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 1u);
  EXPECT_EQ(matches[0].count, 2u);
  EXPECT_EQ(matches[0].lists, 0b11u);
}

TEST_P(ThresholdTest, KEqualsOneIsUnionWithCounts) {
  const auto matches = Run({{1, 3}, {3, 5}}, 1);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0], (ThresholdMatch{1, 1, 0b01}));
  EXPECT_EQ(matches[1], (ThresholdMatch{3, 2, 0b11}));
  EXPECT_EQ(matches[2], (ThresholdMatch{5, 1, 0b10}));
}

TEST_P(ThresholdTest, KEqualsNIsFullIntersection) {
  const auto matches = Run({{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}, 3);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 3u);
  EXPECT_EQ(matches[0].count, 3u);
}

TEST_P(ThresholdTest, CountsAreExactAboveThreshold) {
  const auto matches = Run({{7}, {7}, {7}, {7, 9}}, 2);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (ThresholdMatch{7, 4, 0b1111}));
}

TEST_P(ThresholdTest, OutputSortedById) {
  const auto matches = Run({{5, 9, 100}, {5, 9, 100}, {1, 9}}, 2);
  EXPECT_TRUE(std::is_sorted(
      matches.begin(), matches.end(),
      [](const ThresholdMatch& a, const ThresholdMatch& b) {
        return a.id < b.id;
      }));
}

TEST_P(ThresholdTest, EmptyListsAmongInputs) {
  const auto matches = Run({{}, {4, 5}, {}, {5, 6}}, 2);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (ThresholdMatch{5, 2, 0b1010}));
}

TEST_P(ThresholdTest, SkewedSizesWithCelebrityList) {
  std::vector<VertexId> celebrity;
  for (VertexId v = 0; v < 50'000; ++v) celebrity.push_back(v);
  const auto matches = Run({{10, 70'000}, {10, 20}, celebrity}, 2);
  // 10 appears in lists 0,1,2 (count 3); 20 in 1,2; 70000 only in 0.
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], (ThresholdMatch{10, 3, 0b111}));
  EXPECT_EQ(matches[1], (ThresholdMatch{20, 2, 0b110}));
}

TEST_P(ThresholdTest, RandomizedAgainstReference) {
  Rng rng(555);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t num_lists = 2 + rng.UniformInt(8);
    std::vector<std::vector<VertexId>> lists(num_lists);
    for (auto& list : lists) {
      std::set<VertexId> s;
      const size_t len = rng.UniformInt(trial % 3 == 0 ? 2'000 : 60);
      for (size_t i = 0; i < len; ++i) {
        s.insert(static_cast<VertexId>(rng.UniformInt(300)));
      }
      list.assign(s.begin(), s.end());
    }
    const size_t k = 1 + rng.UniformInt(num_lists);
    const auto expected = Reference(lists, k);
    const auto actual = Run(lists, k);
    EXPECT_EQ(actual, expected)
        << "trial " << trial << " k=" << k << " lists=" << num_lists;
  }
}

TEST_P(ThresholdTest, SeventyListsSetNoBitPastTheMask) {
  // The mask names the first 64 lists only: id 1 is in all 70 and id 2 only
  // in the last six, so both count exactly and no bit at 64 or above is
  // set (a shift past 63 would set one, or be undefined).
  std::vector<std::vector<VertexId>> lists(70);
  for (size_t i = 0; i < lists.size(); ++i) {
    lists[i] = {1};
    if (i >= 64) lists[i].push_back(2);
  }
  for (const size_t k : {size_t{1}, size_t{6}, size_t{65}, size_t{70}}) {
    const auto matches = Run(lists, k);
    EXPECT_EQ(matches, Reference(lists, k)) << "k=" << k;
    ASSERT_FALSE(matches.empty()) << "k=" << k;
    EXPECT_EQ(matches[0], (ThresholdMatch{1, 70, ~uint64_t{0}})) << "k=" << k;
    if (k <= 6) {
      ASSERT_EQ(matches.size(), 2u) << "k=" << k;
      EXPECT_EQ(matches[1], (ThresholdMatch{2, 6, 0})) << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ThresholdTest,
    ::testing::Values(ThresholdAlgorithm::kAuto,
                      ThresholdAlgorithm::kScanCount,
                      ThresholdAlgorithm::kHeapMerge,
                      ThresholdAlgorithm::kCandidateVerify),
    [](const ::testing::TestParamInfo<ThresholdAlgorithm>& info) {
      std::string name(ThresholdAlgorithmName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ThresholdSelectionTest, SmallInputsUseScanCount) {
  // Four or more equal lists: the largest holds under a third of the input,
  // so every element is counted. (Three equal lists sit exactly at a third.)
  std::vector<VertexId> a{1, 2, 3}, b{2, 3, 4}, c{3, 4, 5}, d{4, 5, 6};
  EXPECT_EQ(SelectThresholdAlgorithm({a, b, c, d}, 2),
            ThresholdAlgorithm::kScanCount);
  EXPECT_EQ(SelectThresholdAlgorithm({a, b, c, d, a, b}, 3),
            ThresholdAlgorithm::kScanCount);
}

/// `rest` one-element lists beside one list of `largest` elements.
std::vector<std::vector<VertexId>> OneLargeList(size_t largest, size_t rest) {
  std::vector<std::vector<VertexId>> lists(rest + 1);
  for (VertexId v = 0; v < largest; ++v) lists[0].push_back(v);
  for (size_t i = 1; i <= rest; ++i) lists[i] = {static_cast<VertexId>(i)};
  return lists;
}

TEST(ThresholdSelectionTest, LargestListHoldingAThirdUsesCandidateVerify) {
  // 3 of 9 elements: 2 * 3 >= 6.
  EXPECT_EQ(SelectThresholdAlgorithm(Spans(OneLargeList(3, 6)), 3),
            ThresholdAlgorithm::kCandidateVerify);
  EXPECT_EQ(SelectThresholdAlgorithm(Spans(OneLargeList(100, 200)), 2),
            ThresholdAlgorithm::kCandidateVerify);
}

TEST(ThresholdSelectionTest, LargestListJustUnderAThirdUsesScanCount) {
  // 3 of 10 elements: 2 * 3 < 7.
  EXPECT_EQ(SelectThresholdAlgorithm(Spans(OneLargeList(3, 7)), 3),
            ThresholdAlgorithm::kScanCount);
  EXPECT_EQ(SelectThresholdAlgorithm(Spans(OneLargeList(100, 201)), 2),
            ThresholdAlgorithm::kScanCount);
}

TEST(ThresholdSelectionTest, DominantListUsesCandidateVerify) {
  std::vector<VertexId> small{1, 2, 3};
  std::vector<VertexId> huge(100'000);
  for (VertexId v = 0; v < 100'000; ++v) huge[v] = v;
  EXPECT_EQ(SelectThresholdAlgorithm({small, huge}, 2),
            ThresholdAlgorithm::kCandidateVerify);
}

TEST(ThresholdSelectionTest, LargeBalancedInputsUseHeapMerge) {
  // Four equal lists filling exactly kScanCountMaxElements stay on
  // scan-count; one more element tips the family over to heap-merge.
  constexpr size_t kLen = kScanCountMaxElements / 4;
  std::vector<std::vector<VertexId>> lists(4, std::vector<VertexId>(kLen));
  for (auto& l : lists) {
    for (VertexId v = 0; v < kLen; ++v) l[v] = v;
  }
  EXPECT_EQ(SelectThresholdAlgorithm(Spans(lists), 2),
            ThresholdAlgorithm::kScanCount);
  lists[0].push_back(static_cast<VertexId>(kLen));
  EXPECT_EQ(SelectThresholdAlgorithm(Spans(lists), 2),
            ThresholdAlgorithm::kHeapMerge);
}

TEST(ThresholdSelectionTest, KOneNeverPicksCandidateVerify) {
  // With k=1 an id found only in the largest list qualifies, and
  // candidate-verify never counts that list.
  std::vector<VertexId> small{1};
  std::vector<VertexId> huge(100'000);
  for (VertexId v = 0; v < 100'000; ++v) huge[v] = v;
  for (const size_t k : {0ul, 1ul}) {
    EXPECT_NE(SelectThresholdAlgorithm({small, huge}, k),
              ThresholdAlgorithm::kCandidateVerify);
    EXPECT_NE(SelectThresholdAlgorithm(Spans(OneLargeList(3, 6)), k),
              ThresholdAlgorithm::kCandidateVerify);
  }
}

TEST(ThresholdAlgorithmNameTest, AllNamed) {
  EXPECT_EQ(ThresholdAlgorithmName(ThresholdAlgorithm::kAuto), "auto");
  EXPECT_EQ(ThresholdAlgorithmName(ThresholdAlgorithm::kScanCount),
            "scan-count");
  EXPECT_EQ(ThresholdAlgorithmName(ThresholdAlgorithm::kHeapMerge),
            "heap-merge");
  EXPECT_EQ(ThresholdAlgorithmName(ThresholdAlgorithm::kCandidateVerify),
            "candidate-verify");
}

}  // namespace
}  // namespace magicrecs
