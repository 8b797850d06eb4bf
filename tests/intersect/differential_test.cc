// Differential fuzzing of the threshold layer (intersect/threshold.h) and
// the two probes its candidate verification runs:
//
//   * SimdGallopLowerBound, with the AVX2 scan and with the scalar fallback,
//     must return exactly std::lower_bound over [from, end);
//   * BitsetView::Test must answer exactly std::binary_search, including for
//     ids past the end of the view;
//   * ThresholdIntersect, under every ThresholdAlgorithm, with and without
//     hub bitmaps for a random subset of the lists, must return exactly the
//     ids a std::map count finds in >= k lists, with their counts and list
//     masks, for every k from 0 to n+1 — counting in the per-thread hash
//     table, and again, on the family's ids remapped into [0, universe), in
//     a reused VertexCountTable.
//
// Inputs are generated from a printed seed so any failure is a one-line
// repro:
//
//   MAGICRECS_FUZZ_SEED=<seed> ./intersect_differential_test
//
// The generator deliberately hits the shapes the 8-lane scan cares about:
// empty and singleton lists, lengths 0..23 so every tail 0..7 of a block
// runs, unaligned subspan offsets (1..7 off a 32-byte boundary), lists up to
// 10^5 elements where the gallop and the narrowing both run, and ids
// straddling 2^31 where the scan's sign-bias compare would break first.
// Small lists are probed from every `from`; larger ones from a sample that
// always includes both ends. The k-of-n inputs are balanced families, one
// dominant list exactly at, just under and far over kAuto's "largest holds
// a third" boundary, and families with empty lists, on ids from 0, around
// 2^31 and up to kInvalidVertex.

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
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
  return 0x5eed2026'08'09ull;
}

/// Case budget, overridable for slow instrumented builds (sanitizer CI sets
/// MAGICRECS_FUZZ_TRIALS smaller; the plain CI leg runs the full default).
int Trials(int default_trials) {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_TRIALS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return default_trials;
}

/// One fuzz input: a sorted duplicate-free list viewed past `offset`
/// leading sentinels (kept for the failure message).
struct FuzzCase {
  std::vector<VertexId> storage;
  size_t offset = 0;

  std::span<const VertexId> list() const {
    return std::span<const VertexId>(storage).subspan(offset);
  }
};

/// Sorted unique list of `n` ids drawn from [0, universe). Large lists are
/// built by strided walk (O(n)); small ones by rejection into a set so the
/// density profile stays random.
std::vector<VertexId> RandomSortedList(Rng* rng, size_t n, uint64_t universe) {
  if (universe == 0 || n == 0) return {};
  if (n > 256) {
    n = std::min<uint64_t>(n, universe);
    const uint64_t max_gap = std::max<uint64_t>(1, universe / n);
    std::vector<VertexId> out;
    out.reserve(n);
    uint64_t v = rng->UniformInt(max_gap);
    while (out.size() < n && v < universe) {
      out.push_back(static_cast<VertexId>(v));
      v += 1 + rng->UniformInt(max_gap);
    }
    return out;
  }
  std::set<VertexId> s;
  while (s.size() < n && s.size() < universe) {
    s.insert(static_cast<VertexId>(rng->UniformInt(universe)));
  }
  return {s.begin(), s.end()};
}

/// Ids of the high-id shape start just below 2^31, so one list holds ids on
/// both sides of the sign bit.
constexpr VertexId kHighBase = 0x7fff'ff00u;

FuzzCase GenerateCase(Rng* rng) {
  // Shape roulette (out of 1000). Small shapes dominate so 1e5+ cases stay
  // fast; a thin slice goes to the 10^5-element lists, whose O(n) cost
  // would otherwise swamp the run.
  const uint64_t shape = rng->UniformInt(1000);
  size_t n;
  uint64_t universe;
  VertexId base = 0;
  if (shape < 80) {  // empty / singleton corner
    n = rng->UniformInt(2);
    universe = 16;
  } else if (shape < 380) {  // tail sweep: lengths straddling 8-lane blocks
    n = rng->UniformInt(24);
    universe = 64;
  } else if (shape < 480) {  // dense: every id, or nearly
    n = 1 + rng->UniformInt(200);
    universe = n + rng->UniformInt(4);
  } else if (shape < 485) {  // long list: gallop, narrow, then scan
    n = 10'000 + rng->UniformInt(90'001);
    universe = 2 * n;
  } else if (shape < 600) {  // medium list: narrowing down to 32 lanes
    n = 500 + rng->UniformInt(4'000);
    universe = 8 * n;
  } else if (shape < 700) {  // ids straddling 2^31
    n = rng->UniformInt(300);
    universe = 512;
    base = kHighBase;
  } else {  // general random
    n = rng->UniformInt(400);
    universe = 1 + rng->UniformInt(1'200);
  }

  FuzzCase c;
  std::vector<VertexId> list = RandomSortedList(rng, n, universe);
  // Unaligned offsets: 0..7 sentinel ids below everything real, viewed
  // past, so the scan's loads start off a 32-byte boundary. The real ids
  // shift up by 8 so sortedness and uniqueness survive.
  c.offset = rng->UniformInt(8);
  for (size_t i = 0; i < c.offset; ++i) {
    c.storage.push_back(static_cast<VertexId>(i));
  }
  for (const VertexId v : list) c.storage.push_back(base + v + 8);
  return c;
}

/// Checks SimdGallopLowerBound(list, from, key) against std::lower_bound.
void CheckLowerBound(const FuzzCase& c, size_t from, VertexId key,
                     uint64_t seed, int trial) {
  const auto list = c.list();
  const size_t got = SimdGallopLowerBound(list, from, key);
  const size_t want = static_cast<size_t>(
      std::lower_bound(list.begin() + static_cast<std::ptrdiff_t>(from),
                       list.end(), key) -
      list.begin());
  ASSERT_EQ(got, want) << "lower_bound diverged; seed=" << seed
                       << " trial=" << trial << " simd=" << SimdEnabled()
                       << " |list|=" << list.size() << " offset=" << c.offset
                       << " from=" << from << " key=" << key;
}

/// Probes every `from` of a short list and a sample of a long one, each
/// with keys below, at, between and past the list's elements.
void CheckLowerBounds(const FuzzCase& c, Rng* rng, uint64_t seed, int trial) {
  const auto list = c.list();
  const size_t n = list.size();
  std::vector<size_t> froms;
  if (n <= 64) {
    for (size_t from = 0; from <= n; ++from) froms.push_back(from);
  } else {
    froms = {0, n - 1, n};
    for (int i = 0; i < 13; ++i) froms.push_back(rng->UniformInt(n));
  }
  const uint64_t top = n == 0 ? 16 : uint64_t{list.back()} + 2;
  for (const size_t from : froms) {
    std::vector<VertexId> keys = {0, std::numeric_limits<VertexId>::max(),
                                  static_cast<VertexId>(rng->UniformInt(top))};
    if (n > 0) {
      const VertexId hit = list[rng->UniformInt(n)];
      keys.insert(keys.end(), {hit, hit - 1, hit + 1});
    }
    for (const VertexId key : keys) {
      CheckLowerBound(c, from, key, seed, trial);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Checks BitsetView::Test against std::binary_search for ids in and past
/// the view. A short universe is swept id by id; a long one at sampled list
/// elements, their neighbours, and random ids.
void CheckBitset(const FuzzCase& c, Rng* rng, uint64_t seed, int trial) {
  const auto list = c.list();
  // The high-id shape would need a 256 MiB bitmap; its view stops below the
  // list instead, so every listed id lands past the view.
  const bool high = !list.empty() && list.back() >= kHighBase;
  const uint64_t universe =
      list.empty() || high ? c.offset
                           : uint64_t{list.back()} + 1 + rng->UniformInt(130);
  std::vector<uint64_t> words;
  FillBitset(list, universe, &words);
  const BitsetView view{words.data(), words.size()};
  std::vector<VertexId> covered;
  for (const VertexId v : list) {
    if (v < universe) covered.push_back(v);
  }

  const auto check = [&](VertexId id) {
    ASSERT_EQ(view.Test(id),
              std::binary_search(covered.begin(), covered.end(), id))
        << "bitset diverged; seed=" << seed << " trial=" << trial
        << " id=" << id << " universe=" << universe
        << " words=" << view.num_words;
  };
  const uint64_t past = 64 * uint64_t{view.num_words} + 130;
  std::vector<VertexId> ids = {std::numeric_limits<VertexId>::max(),
                               kHighBase, kHighBase + 0x100u};
  if (past <= 4'096) {
    for (uint64_t id = 0; id < past; ++id) {
      ids.push_back(static_cast<VertexId>(id));
    }
  } else {
    for (int i = 0; i < 256; ++i) {
      const VertexId v = list[rng->UniformInt(list.size())];
      ids.insert(ids.end(), {v - 1, v, v + 1,
                             static_cast<VertexId>(rng->UniformInt(past))});
    }
  }
  for (const VertexId id : ids) {
    check(id);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void RunDifferential(uint64_t seed, int trials) {
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const FuzzCase c = GenerateCase(&rng);
    CheckLowerBounds(c, &rng, seed, trial);
    if (::testing::Test::HasFatalFailure()) return;
    CheckBitset(c, &rng, seed, trial);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// One k-of-n input. Ids are `base` plus an offset below `universe`; a
/// list in a low-id family (base 0) may carry a bitmap, as a hub does.
struct KofNCase {
  const char* shape = "";
  VertexId base = 0;
  uint64_t universe = 0;
  std::vector<std::vector<VertexId>> lists;
  std::vector<std::vector<uint64_t>> words;  // parallel; empty = no bitmap

  std::vector<std::span<const VertexId>> spans() const {
    return {lists.begin(), lists.end()};
  }
  std::vector<BitsetView> views() const {
    std::vector<BitsetView> out;
    for (const auto& w : words) out.push_back({w.data(), w.size()});
    return out;
  }
};

/// Exactly `n` distinct offsets below `universe` (n <= universe), sorted.
std::vector<VertexId> ExactSortedList(Rng* rng, size_t n, uint64_t universe) {
  std::set<VertexId> s;
  while (s.size() < n) {
    s.insert(static_cast<VertexId>(rng->UniformInt(universe)));
  }
  return {s.begin(), s.end()};
}

/// Splits `total` into `parts` sizes of at most `cap` each
/// (total <= parts * cap).
std::vector<size_t> SplitSizes(Rng* rng, size_t total, size_t parts,
                               size_t cap) {
  std::vector<size_t> sizes(parts, 0);
  for (size_t left = total; left > 0;) {
    size_t& size = sizes[rng->UniformInt(parts)];
    if (size < cap) {
      ++size;
      --left;
    }
  }
  return sizes;
}

KofNCase GenerateKofNCase(Rng* rng) {
  KofNCase c;
  std::vector<size_t> sizes;
  const uint64_t shape = rng->UniformInt(5);
  if (shape == 0) {  // balanced: every list about the same size
    c.shape = "balanced";
    const size_t len = rng->UniformInt(120);
    sizes.assign(2 + rng->UniformInt(7), 0);
    for (size_t& size : sizes) size = len + rng->UniformInt(len / 8 + 1);
  } else if (shape <= 3) {  // one dominant list at, under or over a third
    const size_t others = 3 + rng->UniformInt(5);
    size_t largest;
    size_t rest;
    if (shape == 1) {
      c.shape = "dominant-at-a-third";
      largest = 1 + rng->UniformInt(200);
      rest = 2 * largest;
    } else if (shape == 2) {
      c.shape = "dominant-just-under-a-third";
      largest = 1 + rng->UniformInt(200);
      rest = 2 * largest + 1;
    } else {
      c.shape = "dominant-far-over-a-third";
      largest = 200 + rng->UniformInt(3'000);
      rest = rng->UniformInt(largest / 10);
    }
    sizes = SplitSizes(rng, rest, others, largest);
    sizes.insert(sizes.begin() + static_cast<std::ptrdiff_t>(
                                     rng->UniformInt(others + 1)),
                 largest);
  } else {  // empty lists among (or as all of) the inputs
    c.shape = "with-empty-lists";
    sizes.assign(1 + rng->UniformInt(7), 0);
    for (size_t& size : sizes) {
      if (rng->UniformInt(2) == 0) size = rng->UniformInt(60);
    }
  }
  const size_t largest = *std::max_element(sizes.begin(), sizes.end());
  // A dense universe makes most ids candidates; a sparse one leaves a
  // fraction of a match per query, as the serving mix does.
  constexpr uint64_t kSpread[] = {1, 2, 8, 64};
  c.universe = std::max<uint64_t>(1, largest * kSpread[rng->UniformInt(4)] +
                                         rng->UniformInt(4));
  const uint64_t base_pick = rng->UniformInt(4);
  c.base = base_pick == 2   ? (VertexId{1} << 31) -
                                  static_cast<VertexId>(c.universe / 2)
           : base_pick == 3 ? kInvalidVertex -
                                  static_cast<VertexId>(c.universe - 1)
                            : 0;
  for (const size_t size : sizes) {
    std::vector<VertexId>& list = c.lists.emplace_back(
        ExactSortedList(rng, size, c.universe));
    for (VertexId& v : list) v += c.base;
    std::vector<uint64_t>& words = c.words.emplace_back();
    // A bitmap spans ids [0, max]: only low-id families can afford one.
    if (c.base == 0 && rng->UniformInt(2) == 0) {
      FillBitset(list, c.universe + rng->UniformInt(130), &words);
    }
  }
  return c;
}

std::vector<ThresholdMatch> ReferenceMatches(const KofNCase& c, size_t k) {
  std::map<VertexId, ThresholdMatch> counts;
  for (size_t i = 0; i < c.lists.size(); ++i) {
    for (const VertexId v : c.lists[i]) {
      ThresholdMatch& match = counts[v];
      match.id = v;
      ++match.count;
      if (i < 64) match.lists |= uint64_t{1} << i;
    }
  }
  std::vector<ThresholdMatch> out;
  for (const auto& [v, match] : counts) {
    if (match.count >= std::max<size_t>(k, 1)) out.push_back(match);
  }
  return out;
}

/// `c` with every id shifted down by its base, into [0, universe): the
/// input a VertexCountTable over `universe` ids may count. Bitmaps stay
/// valid, since only base-0 families carry one.
KofNCase Remapped(const KofNCase& c) {
  KofNCase r = c;
  r.base = 0;
  for (auto& list : r.lists) {
    for (VertexId& v : list) v -= c.base;
  }
  return r;
}

/// Runs every algorithm at every k from 0 to n+1, with and without the
/// bitmaps, against the std::map count; in `table` when non-null.
void CheckKofN(const KofNCase& c, VertexCountTable* table, uint64_t seed,
               int trial) {
  constexpr ThresholdAlgorithm kAlgos[] = {
      ThresholdAlgorithm::kAuto, ThresholdAlgorithm::kScanCount,
      ThresholdAlgorithm::kHeapMerge, ThresholdAlgorithm::kCandidateVerify};
  const auto lists = c.spans();
  const auto views = c.views();
  size_t total = 0;
  for (const auto& list : lists) total += list.size();
  const auto describe = [&](size_t k) {
    std::string sizes;
    for (const auto& list : lists) sizes += std::to_string(list.size()) + ",";
    return "seed=" + std::to_string(seed) + " trial=" + std::to_string(trial) +
           " simd=" + std::to_string(SimdEnabled()) + " shape=" + c.shape +
           " base=" + std::to_string(c.base) +
           " universe=" + std::to_string(c.universe) +
           " table=" + std::to_string(table != nullptr) +
           " k=" + std::to_string(k) + " sizes=" + sizes;
  };
  std::vector<ThresholdMatch> out;
  for (size_t k = 0; k <= lists.size() + 1; ++k) {
    const auto want = k > lists.size() ? std::vector<ThresholdMatch>{}
                                       : ReferenceMatches(c, k);
    for (const ThresholdAlgorithm algo : kAlgos) {
      for (const std::vector<BitsetView>* bitsets :
           {static_cast<const std::vector<BitsetView>*>(nullptr), &views}) {
        out.assign(3, ThresholdMatch{7, 7});  // must be cleared
        const size_t n =
            ThresholdIntersect(lists, k, &out, algo, bitsets, table);
        ASSERT_EQ(n, out.size()) << describe(k);
        ASSERT_EQ(out, want) << "k-of-n diverged; " << describe(k)
                             << " algo=" << ThresholdAlgorithmName(algo)
                             << " bitmaps=" << (bitsets != nullptr);
      }
    }
    // The boundary shapes sit on kAuto's rule: the largest list holding a
    // third of the input (2 * largest >= rest) picks candidate-verify.
    if (k >= 2 && k <= lists.size() && total <= kScanCountMaxElements) {
      const std::string_view shape = c.shape;
      const ThresholdAlgorithm picked = SelectThresholdAlgorithm(lists, k);
      if (shape == "dominant-just-under-a-third") {
        ASSERT_EQ(picked, ThresholdAlgorithm::kScanCount) << describe(k);
      } else if (shape.starts_with("dominant")) {
        ASSERT_EQ(picked, ThresholdAlgorithm::kCandidateVerify) << describe(k);
      }
    }
  }
}

/// Each case runs twice: in the per-thread hash table on its own ids, then
/// remapped in one vertex table reused across cases (grown when a case's
/// universe outgrows it), so a stale cell from an earlier case would show.
void RunKofNDifferential(uint64_t seed, int trials) {
  Rng rng(seed);
  VertexCountTable table;
  for (int trial = 0; trial < trials; ++trial) {
    const KofNCase c = GenerateKofNCase(&rng);
    CheckKofN(c, nullptr, seed, trial);
    if (::testing::Test::HasFatalFailure()) return;
    if (table.universe() < c.universe) table = VertexCountTable(c.universe);
    CheckKofN(Remapped(c), &table, seed, trial);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialFuzzTest, ProbesMatchStdWithSimd) {
  const uint64_t seed = BaseSeed();
  RecordProperty("seed", std::to_string(seed));
  // 1e5 cases through both probes. Each failure message carries the seed;
  // rerun with MAGICRECS_FUZZ_SEED to reproduce exactly.
  RunDifferential(seed, Trials(100'000));
}

TEST(DifferentialFuzzTest, ProbesMatchStdWithScalarFallback) {
  // Force-disable SIMD so SimdGallopLowerBound runs its scalar fallback:
  // the dispatch wrapper itself is part of the contract under test.
  const bool prior = SetSimdEnabled(false);
  ASSERT_FALSE(SimdEnabled());
  const uint64_t seed = BaseSeed() ^ 0xfa11bacc;
  RecordProperty("seed", std::to_string(seed));
  RunDifferential(seed, Trials(100'000) / 20 + 1);
  SetSimdEnabled(prior);
}

TEST(DifferentialFuzzTest, KofNMatchesMapCountWithSimd) {
  const uint64_t seed = BaseSeed() ^ 0x0f0f;
  RecordProperty("seed", std::to_string(seed));
  RunKofNDifferential(seed, Trials(100'000) / 50 + 1);
}

TEST(DifferentialFuzzTest, KofNMatchesMapCountWithScalarFallback) {
  const bool prior = SetSimdEnabled(false);
  ASSERT_FALSE(SimdEnabled());
  const uint64_t seed = BaseSeed() ^ 0x5ca1a7;
  RecordProperty("seed", std::to_string(seed));
  RunKofNDifferential(seed, Trials(100'000) / 250 + 1);
  SetSimdEnabled(prior);
}

TEST(DifferentialFuzzTest, ReportsVectorizationState) {
  // Not an assertion — a breadcrumb in the test log so CI runs record
  // whether the SIMD probe actually vectorized on that machine.
  RecordProperty("avx2", CpuSupportsAvx2() ? "yes" : "no");
  RecordProperty("simd_enabled", SimdEnabled() ? "yes" : "no");
  SUCCEED();
}

}  // namespace
}  // namespace magicrecs
