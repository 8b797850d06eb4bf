// Property tests for ThresholdIntersect: on randomized Zipf-shaped list
// families — the in-degree profile the paper's follow graph actually has —
// every algorithm (ScanCount, HeapMerge, CandidateVerify, and whatever kAuto
// selects) must agree on the matched ids, their occurrence counts AND their
// list masks, for every k from 1 to n, with and without hub bitset views.
// The k == 0 and k > n boundary contracts are locked down explicitly.
//
// ScanCount and CandidateVerify count in a per-thread table reused across
// calls, so the ThresholdScratchTest cases feed one thread a sequence of
// large, small and empty families (a bad reset shows up as stale ids or
// counts), families holding kInvalidVertex (the table's empty-slot
// marker), and eight threads at once. The ThresholdTableTest cases do the
// same for a caller's VertexCountTable, plus its epoch wrap, counts past
// what a byte holds, families past the 64 lists a mask names, and the
// debug check that every id is in range.
//
// Failures print the seed; rerun with MAGICRECS_FUZZ_SEED=<seed>.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "intersect/bitset.h"
#include "intersect/simd.h"
#include "intersect/threshold.h"
#include "util/random.h"

namespace magicrecs {
namespace {

uint64_t BaseSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 0x7e5707d1440ull;  // arbitrary fixed default
}

constexpr ThresholdAlgorithm kConcreteAlgos[] = {
    ThresholdAlgorithm::kScanCount,
    ThresholdAlgorithm::kHeapMerge,
    ThresholdAlgorithm::kCandidateVerify,
};

/// A family of sorted duplicate-free lists drawn from a Zipf(universe, q)
/// popularity model: popular ids land in many lists, the tail in few — the
/// shape that separates ScanCount from CandidateVerify in practice.
std::vector<std::vector<VertexId>> ZipfFamily(Rng* rng, size_t n,
                                              uint64_t universe, double q) {
  const ZipfDistribution zipf(universe, q);
  std::vector<std::vector<VertexId>> lists(n);
  for (std::vector<VertexId>& list : lists) {
    // Log-normal list length: most actors follow few, some follow many.
    const size_t len = static_cast<size_t>(rng->LogNormal(3.0, 1.2));
    std::set<VertexId> s;
    for (size_t i = 0; i < len; ++i) {
      s.insert(static_cast<VertexId>(zipf.Sample(rng) - 1));
    }
    list.assign(s.begin(), s.end());
  }
  // One hub-shaped outlier so the CandidateVerify + bitset path sees real
  // skew: a long near-dense list.
  if (!lists.empty() && rng->Bernoulli(0.5)) {
    std::set<VertexId> s;
    const size_t len = universe / 2 + rng->UniformInt(universe / 4);
    while (s.size() < len) {
      s.insert(static_cast<VertexId>(rng->UniformInt(universe)));
    }
    lists.back().assign(s.begin(), s.end());
  }
  return lists;
}

/// Brute-force reference: occurrence counting over a map, with list i
/// marked in the mask of every id it holds, for i < 64.
std::vector<ThresholdMatch> Reference(
    const std::vector<std::vector<VertexId>>& lists, size_t k) {
  if (k == 0) k = 1;
  if (k > lists.size()) return {};
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
  for (const auto& [id, match] : counts) {
    if (match.count >= k) out.push_back(match);
  }
  return out;
}

std::vector<BitsetView> MakeBitsets(
    const std::vector<std::vector<VertexId>>& lists, uint64_t universe,
    std::vector<std::vector<uint64_t>>* storage, Rng* rng) {
  storage->assign(lists.size(), {});
  std::vector<BitsetView> views(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    // Bitmap roughly the longer lists — mirroring production, where only
    // hubs carry bitmaps — plus a random sprinkle so short-list bitset
    // probing is exercised too.
    if (lists[i].size() * 4 >= universe || rng->Bernoulli(0.25)) {
      FillBitset(lists[i], universe, &(*storage)[i]);
      views[i] = {(*storage)[i].data(), (*storage)[i].size()};
    }
  }
  return views;
}

/// Every algorithm (and kAuto) at every k from 1 to n must match the
/// reference, without and — when `bitsets` is given — with hub bitset
/// views, counting in `table` when given. `where` names the family in
/// failure messages.
void CheckAgainstReference(const std::vector<std::vector<VertexId>>& lists,
                           const std::vector<BitsetView>* bitsets,
                           const std::string& where,
                           VertexCountTable* table = nullptr) {
  std::vector<std::span<const VertexId>> spans(lists.begin(), lists.end());
  for (size_t k = 1; k <= lists.size(); ++k) {
    const std::vector<ThresholdMatch> expected = Reference(lists, k);
    for (const ThresholdAlgorithm algo :
         {ThresholdAlgorithm::kAuto, ThresholdAlgorithm::kScanCount,
          ThresholdAlgorithm::kHeapMerge,
          ThresholdAlgorithm::kCandidateVerify}) {
      std::vector<ThresholdMatch> got;
      const size_t n =
          ThresholdIntersect(spans, k, &got, algo, nullptr, table);
      ASSERT_EQ(n, got.size()) << ThresholdAlgorithmName(algo)
                               << " count mismatch; " << where << " k=" << k;
      ASSERT_EQ(got, expected)
          << ThresholdAlgorithmName(algo) << " diverged (ids or counts); "
          << where << " k=" << k << " n_lists=" << lists.size();
      if (bitsets == nullptr) continue;

      // Same query with hub bitset views must be identical.
      std::vector<ThresholdMatch> got_bits;
      ThresholdIntersect(spans, k, &got_bits, algo, bitsets, table);
      ASSERT_EQ(got_bits, expected)
          << ThresholdAlgorithmName(algo) << " diverged with bitsets; "
          << where << " k=" << k;
    }
  }
}

void CheckFamily(const std::vector<std::vector<VertexId>>& lists,
                 uint64_t universe, uint64_t seed, int trial, Rng* rng) {
  std::vector<std::vector<uint64_t>> bitset_storage;
  const std::vector<BitsetView> bitsets =
      MakeBitsets(lists, universe, &bitset_storage, rng);
  CheckAgainstReference(
      lists, &bitsets,
      "seed=" + std::to_string(seed) + " trial=" + std::to_string(trial));
}

TEST(ThresholdPropertyTest, AllAlgorithmsAgreeOnZipfFamilies) {
  const uint64_t seed = BaseSeed();
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t n = 1 + rng.UniformInt(10);
    const uint64_t universe = 64 + rng.UniformInt(1'000);
    const double q = 0.7 + rng.UniformDouble() * 1.0;  // Zipf exponent
    const auto lists = ZipfFamily(&rng, n, universe, q);
    CheckFamily(lists, universe, seed, trial, &rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ThresholdPropertyTest, AgreesWithSimdDisabled) {
  // CandidateVerify's probes route through SimdGallopLowerBound; the scalar
  // fallback must be observationally identical.
  const bool prior = SetSimdEnabled(false);
  const uint64_t seed = BaseSeed() ^ 0x5ca1a5;
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 1 + rng.UniformInt(8);
    const uint64_t universe = 64 + rng.UniformInt(600);
    const auto lists = ZipfFamily(&rng, n, universe, 1.1);
    CheckFamily(lists, universe, seed, trial, &rng);
    if (::testing::Test::HasFatalFailure()) break;
  }
  SetSimdEnabled(prior);
}

TEST(ThresholdPropertyTest, KZeroBehavesAsKOne) {
  Rng rng(77);
  const auto lists = ZipfFamily(&rng, 5, 256, 1.0);
  std::vector<std::span<const VertexId>> spans(lists.begin(), lists.end());
  for (const ThresholdAlgorithm algo : kConcreteAlgos) {
    std::vector<ThresholdMatch> k0, k1;
    ThresholdIntersect(spans, 0, &k0, algo);
    ThresholdIntersect(spans, 1, &k1, algo);
    EXPECT_EQ(k0, k1) << ThresholdAlgorithmName(algo);
  }
}

TEST(ThresholdPropertyTest, KBeyondListCountIsEmpty) {
  Rng rng(78);
  const auto lists = ZipfFamily(&rng, 4, 256, 1.0);
  std::vector<std::span<const VertexId>> spans(lists.begin(), lists.end());
  for (const ThresholdAlgorithm algo : kConcreteAlgos) {
    std::vector<ThresholdMatch> out{{42, 1}};  // must be cleared
    EXPECT_EQ(ThresholdIntersect(spans, spans.size() + 1, &out, algo), 0u)
        << ThresholdAlgorithmName(algo);
    EXPECT_TRUE(out.empty()) << ThresholdAlgorithmName(algo);
  }
}

TEST(ThresholdPropertyTest, EmptyFamilyIsEmpty) {
  std::vector<std::span<const VertexId>> spans;
  for (const ThresholdAlgorithm algo : kConcreteAlgos) {
    std::vector<ThresholdMatch> out;
    EXPECT_EQ(ThresholdIntersect(spans, 1, &out, algo), 0u);
    EXPECT_TRUE(out.empty());
  }
}

/// A family of `n` lists over [0, universe), each id kept with probability
/// `density`: sorted and duplicate-free by construction, in O(universe).
std::vector<std::vector<VertexId>> DenseFamily(Rng* rng, size_t n,
                                               uint64_t universe,
                                               double density) {
  std::vector<std::vector<VertexId>> lists(n);
  for (std::vector<VertexId>& list : lists) {
    for (uint64_t v = 0; v < universe; ++v) {
      if (rng->Bernoulli(density)) list.push_back(static_cast<VertexId>(v));
    }
  }
  return lists;
}

/// Trial i's family on one thread: large, small, large, empty in turn. The
/// small families reuse ids of the large ones, so a slot or count the reset
/// missed would surface as a wrong match.
std::vector<std::vector<VertexId>> AlternatingFamily(Rng* rng, int trial,
                                                     uint64_t large_universe) {
  switch (trial % 4) {
    case 0:
    case 2:
      return DenseFamily(rng, 4 + rng->UniformInt(5), large_universe,
                         0.2 + 0.2 * rng->UniformDouble());
    case 1:
      return DenseFamily(rng, 1 + rng->UniformInt(4), 48, 0.3);
    default:
      return std::vector<std::vector<VertexId>>(5);  // all lists empty
  }
}

/// Failure context: the MAGICRECS_FUZZ_SEED that reproduces the run.
std::string Where(uint64_t base_seed, int trial) {
  return "MAGICRECS_FUZZ_SEED=" + std::to_string(base_seed) +
         " trial=" + std::to_string(trial);
}

TEST(ThresholdScratchTest, AlternatingSizesLeaveNoStaleCounts) {
  const uint64_t base = BaseSeed();
  RecordProperty("seed", std::to_string(base));
  Rng rng(base ^ 0x5eed7ab1e);
  for (int trial = 0; trial < 32; ++trial) {
    CheckAgainstReference(AlternatingFamily(&rng, trial, 12'000), nullptr,
                          Where(base, trial));
    if (HasFailure()) return;
  }
}

TEST(ThresholdScratchTest, InvalidVertexIsCountedLikeAnyId) {
  // kInvalidVertex is the largest id, so appending it keeps lists sorted.
  const std::vector<std::vector<VertexId>> fixed = {
      {1, kInvalidVertex - 1, kInvalidVertex},
      {kInvalidVertex},
      {2, kInvalidVertex - 1, kInvalidVertex}};
  CheckAgainstReference(fixed, nullptr, "fixed family");

  const uint64_t base = BaseSeed();
  RecordProperty("seed", std::to_string(base));
  Rng rng(base ^ 0x1d1e);
  for (int trial = 0; trial < 40; ++trial) {
    auto lists = trial % 2 == 0 ? DenseFamily(&rng, 2 + rng.UniformInt(6),
                                              4'000, 0.3)
                                : DenseFamily(&rng, 2 + rng.UniformInt(6),
                                              40, 0.4);
    for (auto& list : lists) {
      if (rng.Bernoulli(0.6)) list.push_back(kInvalidVertex);
    }
    CheckAgainstReference(lists, nullptr, Where(base, trial));
    if (HasFailure()) return;
  }
}

TEST(ThresholdScratchTest, ConcurrentThreadsKeepTheirOwnTables) {
  constexpr int kThreads = 8;
  const uint64_t base = BaseSeed();
  RecordProperty("seed", std::to_string(base));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Each thread runs its own seeded sequence of families.
    threads.emplace_back([base, t] {
      Rng rng((base ^ 0xc0ffee) + static_cast<uint64_t>(t));
      for (int trial = 0; trial < 24; ++trial) {
        CheckAgainstReference(
            AlternatingFamily(&rng, trial, 3'000), nullptr,
            Where(base, trial) + " thread=" + std::to_string(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// --- A caller's vertex table ------------------------------------------------

TEST(ThresholdTableTest, AlternatingSizesLeaveNoStaleCounts) {
  const uint64_t base = BaseSeed();
  RecordProperty("seed", std::to_string(base));
  Rng rng(base ^ 0x7ab1e5);
  VertexCountTable table(12'000);
  for (int trial = 0; trial < 32; ++trial) {
    CheckAgainstReference(AlternatingFamily(&rng, trial, 12'000), nullptr,
                          Where(base, trial), &table);
    if (HasFailure()) return;
  }
}

TEST(ThresholdTableTest, ConcurrentThreadsKeepTheirOwnTables) {
  // Each thread counts in its own copy of one warm table, as a Cluster's
  // replicas each hold a copy of one QueryStage: a copy must own its cells.
  constexpr int kThreads = 8;
  const uint64_t base = BaseSeed();
  RecordProperty("seed", std::to_string(base));
  VertexCountTable prototype(3'000);
  Rng warm(base);
  CheckAgainstReference(AlternatingFamily(&warm, 0, 3'000), nullptr, "warm-up",
                        &prototype);
  std::vector<VertexCountTable> tables(kThreads, prototype);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([base, t, &tables] {
      Rng rng((base ^ 0x7ab1ec0ffee) + static_cast<uint64_t>(t));
      for (int trial = 0; trial < 24; ++trial) {
        CheckAgainstReference(
            AlternatingFamily(&rng, trial, 3'000), nullptr,
            Where(base, trial) + " thread=" + std::to_string(t), &tables[t]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(ThresholdTableTest, CountAfterTheEpochWrapSeesNoStaleCell) {
  Rng rng(BaseSeed() ^ 0xe90c);
  const auto before = DenseFamily(&rng, 6, 500, 0.5);
  const auto after = DenseFamily(&rng, 4, 500, 0.3);
  std::vector<std::span<const VertexId>> spans(before.begin(), before.end());
  VertexCountTable table(500);
  std::vector<ThresholdMatch> got;
  // The first count leaves its cells at epoch 1. Were the wrap not to refill
  // the table, the count after it would run at epoch 1 again and read them.
  ThresholdIntersect(spans, 1, &got, ThresholdAlgorithm::kScanCount, nullptr,
                     &table);
  ASSERT_FALSE(got.empty());
  table.SetEpochForTesting(std::numeric_limits<uint32_t>::max());
  CheckAgainstReference(after, nullptr, "first counts after the wrap", &table);
  // The witness step's use: values set after a wrap read back exactly, and
  // every other cell reads zero.
  table.SetEpochForTesting(std::numeric_limits<uint32_t>::max());
  table.Begin();
  table.Set(7, 3);
  for (VertexId v = 0; v < 500; ++v) {
    ASSERT_EQ(table.Get(v), v == 7 ? 3u : 0u) << "v=" << v;
  }
}

TEST(ThresholdTableTest, CountsPastTwoFiftyFiveListsAreExact) {
  // With no witness cap a query may gather any number of lists, so a count
  // must not saturate at a byte: id 3 is in all 300 lists, id 9 in 256
  // (the first 255 and the last).
  constexpr size_t kLists = 300;
  std::vector<std::vector<VertexId>> lists(kLists);
  for (size_t i = 0; i < kLists; ++i) {
    lists[i].push_back(3);
    if (i < 255) lists[i].push_back(9);
    lists[i].push_back(static_cast<VertexId>(20 + i));
  }
  // A large last list makes kAuto pick candidate-verify at k >= 2.
  for (VertexId v = 3; v < 1'000; ++v) lists.back().push_back(v);
  std::sort(lists.back().begin(), lists.back().end());
  lists.back().erase(std::unique(lists.back().begin(), lists.back().end()),
                     lists.back().end());
  std::vector<std::span<const VertexId>> spans(lists.begin(), lists.end());
  VertexCountTable table(1'000);
  for (const size_t k : {size_t{1}, size_t{2}, size_t{255}, size_t{256},
                         size_t{257}, kLists}) {
    const std::vector<ThresholdMatch> expected = Reference(lists, k);
    for (const ThresholdAlgorithm algo :
         {ThresholdAlgorithm::kAuto, ThresholdAlgorithm::kScanCount,
          ThresholdAlgorithm::kCandidateVerify}) {
      std::vector<ThresholdMatch> got;
      ThresholdIntersect(spans, k, &got, algo, nullptr, &table);
      ASSERT_EQ(got, expected) << ThresholdAlgorithmName(algo) << " k=" << k;
    }
  }
  std::vector<ThresholdMatch> got;
  ThresholdIntersect(spans, 256, &got, ThresholdAlgorithm::kScanCount, nullptr,
                     &table);
  const std::vector<ThresholdMatch> want = {{3, 300, ~uint64_t{0}},
                                            {9, 256, ~uint64_t{0}}};
  EXPECT_EQ(got, want);
}

TEST(ThresholdTableTest, SeventyListsMaskOnlyTheFirstSixtyFour) {
  // A mask names lists 0..63: lists 64..69 must count exactly and set no
  // bit (a shift by 64 or more would wrap onto a low bit on x86). Both
  // tables, with and without bitmaps, with and without SIMD probes.
  const uint64_t base = BaseSeed();
  RecordProperty("seed", std::to_string(base));
  Rng rng(base ^ 0x70);
  const bool prior = SimdEnabled();
  VertexCountTable table(600);
  for (int trial = 0; trial < 4; ++trial) {
    auto lists = DenseFamily(&rng, 70, 600, 0.05 + 0.1 * rng.UniformDouble());
    // A near-full last list makes candidate-verify probe list 69, whose
    // hits complete a count and set no bit.
    lists.back() = DenseFamily(&rng, 1, 600, 0.9)[0];
    std::vector<std::vector<uint64_t>> storage;
    const std::vector<BitsetView> bitsets =
        MakeBitsets(lists, 600, &storage, &rng);
    for (const bool simd : {true, false}) {
      SetSimdEnabled(simd && prior);
      const std::string where =
          Where(base, trial) + " simd=" + std::to_string(SimdEnabled());
      CheckAgainstReference(lists, &bitsets, where + " hash");
      CheckAgainstReference(lists, &bitsets, where + " table", &table);
      if (HasFatalFailure()) break;
    }
    SetSimdEnabled(prior);
    if (HasFatalFailure()) return;
  }
}

TEST(ThresholdTableTest, DebugBuildsRejectAnIdPastTheUniverse) {
#ifdef NDEBUG
  GTEST_SKIP() << "the range check is a debug assert";
#else
  const std::vector<std::vector<VertexId>> lists = {{1, 5}, {2, 64}};
  std::vector<std::span<const VertexId>> spans(lists.begin(), lists.end());
  VertexCountTable table(64);
  std::vector<ThresholdMatch> got;
  EXPECT_DEATH(ThresholdIntersect(spans, 1, &got,
                                  ThresholdAlgorithm::kScanCount, nullptr,
                                  &table),
               "universe");
#endif
}

}  // namespace
}  // namespace magicrecs
