// Ablation A1 — the intersection kernel ("intersections can be implemented
// efficiently using well-known algorithms", §2).
//
// Plain-printf harness (no Google Benchmark dependency, so CI can run it):
//
//   * hub probes: candidate verification against a celebrity list, probing
//     it by SIMD-finished galloping search or by one bit test of its hub
//     bitmap — the decision StaticGraph's hub index and
//     MotifOptions::use_hub_bitsets make — plus a density sweep behind
//     AutoHubDegreeThreshold;
//   * k-of-n: scan-count vs heap-merge vs candidate-verify on balanced
//     shapes around kScanCountMaxElements, the celebrity list, and two
//     serving-shaped queries where one list holds most of ~300 elements.
//     The balanced shapes up to kScanCountMaxElements and the serving
//     shapes run scan-count, candidate-verify and auto twice: counting in
//     the per-thread hash table, and in a VertexCountTable over the shape's
//     universe ("+table" rows), as the serving query half does.
//
// Emits the machine-readable "threshold" section into BENCH_net.json
// (merged; other benches' sections are preserved). The "speedup" field is
// time(reference)/time(kernel) on the same shape — heap-merge for the k-of-n
// rows, the galloping probe for the hub-probe rows — machine-independent,
// so tools/check_bench_regression.py gates on it.
//
// Exit status: --check additionally fails (exit 1) unless every hub-probe
// row's bitmap probe beats its galloping probe.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "graph/static_graph.h"
#include "intersect/bitset.h"
#include "intersect/simd.h"
#include "intersect/threshold.h"
#include "util/clock.h"
#include "util/random.h"

using namespace magicrecs;

namespace {

std::vector<VertexId> SortedRandom(size_t n, uint32_t universe, Rng* rng) {
  if (n >= universe / 2) {
    // Dense regime: rejection into a set would crawl (or spin forever when
    // n > universe). Strided walk keeps the density while staying O(n).
    const uint64_t max_gap = std::max<uint64_t>(1, universe / n);
    std::vector<VertexId> out;
    out.reserve(n);
    uint64_t v = rng->UniformInt(max_gap + 1);
    while (out.size() < n && v < universe) {
      out.push_back(static_cast<VertexId>(v));
      v += 1 + rng->UniformInt(max_gap);
    }
    return out;
  }
  std::set<VertexId> s;
  while (s.size() < n) {
    s.insert(static_cast<VertexId>(rng->UniformInt(universe)));
  }
  return {s.begin(), s.end()};
}

/// Times fn() (which must touch `elems` list elements per call) until the
/// run is long enough to trust; returns seconds per call.
template <typename Fn>
double TimePerCall(Fn&& fn) {
  // Warm the caches, then run for >= 40ms.
  fn();
  size_t calls = 1;
  for (;;) {
    const Stopwatch timer;
    for (size_t i = 0; i < calls; ++i) fn();
    const double seconds = timer.ElapsedSeconds();
    if (seconds >= 0.04) return seconds / static_cast<double>(calls);
    calls = seconds <= 0.0 ? calls * 16
                           : static_cast<size_t>(0.06 * calls / seconds) + 1;
  }
}

constexpr const char* kJsonPath = "BENCH_net.json";

bool g_check_failed = false;

/// Fails the --check run unless `speedup` is above `floor`.
void RequireSpeedup(const char* what, double speedup, double floor) {
  if (!(speedup > floor)) {
    std::fprintf(stderr, "CHECK FAILED: %s speedup %.2fx <= %.2fx\n", what,
                 speedup, floor);
    g_check_failed = true;
  }
}

/// Best time per call of candidate-verify on `lists` over kRounds rounds,
/// once galloping every list and once with `bitsets`; the two alternate
/// within each round so interference lands on both.
std::pair<double, double> TimeVerify(
    const std::vector<std::span<const VertexId>>& lists, size_t k,
    const std::vector<BitsetView>& bitsets) {
  constexpr int kRounds = 5;
  std::vector<ThresholdMatch> out;
  double gallop = std::numeric_limits<double>::infinity();
  double bitmap = gallop;
  for (int round = 0; round < kRounds; ++round) {
    gallop = std::min(gallop, TimePerCall([&] {
      ThresholdIntersect(lists, k, &out, ThresholdAlgorithm::kCandidateVerify);
    }));
    bitmap = std::min(bitmap, TimePerCall([&] {
      ThresholdIntersect(lists, k, &out, ThresholdAlgorithm::kCandidateVerify,
                         &bitsets);
    }));
  }
  return {gallop, bitmap};
}

/// Lists of the celebrity shape (two seed lists and one large list, k=2)
/// with a bitmap of the large list only, as the hub index builds it.
struct CelebrityShape {
  std::vector<std::vector<VertexId>> storage;
  std::vector<uint64_t> words;

  CelebrityShape(size_t seed_size, size_t celebrity, size_t universe,
                 Rng* rng) {
    storage.push_back(SortedRandom(seed_size, universe, rng));
    storage.push_back(SortedRandom(seed_size, universe, rng));
    storage.push_back(SortedRandom(celebrity, universe, rng));
    FillBitset(storage.back(), universe, &words);
  }
  std::vector<std::span<const VertexId>> lists() const {
    return {storage.begin(), storage.end()};
  }
  std::vector<BitsetView> bitsets() const {
    return {{}, {}, {words.data(), words.size()}};
  }
};

void HubProbeSweep(bench::JsonRows* rows, bool check) {
  // Universe 1M. The bitmap comes for free in production (the hub index is
  // built once per shard), so FillBitset is outside the timed region.
  constexpr size_t kUniverse = 1'000'000;
  Rng rng(7);
  std::printf("--- hub probes: candidate-verify, k=2, universe=1M (bitmap "
              "prebuilt, as in the hub index) ---\n");
  std::printf("%26s %14s %14s %10s\n", "shape", "gallop us", "bitmap us",
              "speedup");
  for (const size_t celebrity : {10'000ul, 100'000ul}) {
    for (const size_t seed_size : {64ul, 1'024ul}) {
      const CelebrityShape shape(seed_size, celebrity, kUniverse, &rng);
      const auto [gallop, bitmap] =
          TimeVerify(shape.lists(), 2, shape.bitsets());
      const std::string name = "celebrity-" + std::to_string(celebrity) +
                               "-seeds-" + std::to_string(seed_size);
      const double elems = static_cast<double>(2 * seed_size + celebrity);
      std::printf("%26s %14.2f %14.2f %9.2fx\n", name.c_str(), gallop * 1e6,
                  bitmap * 1e6, gallop / bitmap);
      rows->AddKernel("threshold", "verify-gallop", name.c_str(),
                      elems / gallop / 1e6, 1.0);
      rows->AddKernel("threshold", "verify-bitmap", name.c_str(),
                      elems / bitmap / 1e6, gallop / bitmap);
      if (check) {
        RequireSpeedup(("verify-bitmap on " + name).c_str(), gallop / bitmap,
                       1.0);
      }
    }
  }

  // Density sweep: at which celebrity-list density does its bitmap stop
  // beating the galloping probe? AutoHubDegreeThreshold gives a bitmap from
  // num_vertices/32 (floored at kMinHubDegree).
  std::printf("\n%26s %14s %14s %10s\n", "density (1/x), seeds 1024",
              "gallop us", "bitmap us", "speedup");
  for (const size_t inv_density : {8ul, 32ul, 128ul, 512ul}) {
    const CelebrityShape shape(1'024, kUniverse / inv_density, kUniverse,
                               &rng);
    const auto [gallop, bitmap] = TimeVerify(shape.lists(), 2, shape.bitsets());
    std::printf("%26zu %14.2f %14.2f %9.2fx\n", inv_density, gallop * 1e6,
                bitmap * 1e6, gallop / bitmap);
  }
  std::printf("\nAutoHubDegreeThreshold: degree >= num_vertices/32 "
              "(bitmap <= 2x array memory), floor %zu\n\n", kMinHubDegree);
}

struct ThresholdShape {
  std::string name;
  size_t k;
  std::vector<std::vector<VertexId>> storage;
  /// Ids are below this; 0 means the shape gets no "+table" rows.
  uint32_t universe = 0;
};

/// One timed configuration of ThresholdIntersect.
struct ThresholdVariant {
  ThresholdAlgorithm algo;
  bool table;  ///< counts in a VertexCountTable, not the hash table

  std::string Name() const {
    return std::string(ThresholdAlgorithmName(algo)) + (table ? "+table" : "");
  }
};

/// Times every algorithm on every k-of-n shape and emits one "threshold" row
/// per (shape, variant); heap-merge is the speedup reference, as in the
/// ablation tables. The whole sweep runs several rounds and each cell keeps
/// its best time, so a burst of interference on a shared host cannot cover
/// every round of one shape, nor land on one side of a ratio.
void ThresholdSweep(bench::JsonRows* rows) {
  constexpr ThresholdVariant kVariants[] = {
      {ThresholdAlgorithm::kHeapMerge, false},
      {ThresholdAlgorithm::kScanCount, false},
      {ThresholdAlgorithm::kCandidateVerify, false},
      {ThresholdAlgorithm::kAuto, false},
      {ThresholdAlgorithm::kScanCount, true},
      {ThresholdAlgorithm::kCandidateVerify, true},
      {ThresholdAlgorithm::kAuto, true}};
  constexpr int kRounds = 5;
  std::vector<ThresholdShape> shapes;
  // Balanced: 6 lists, k=3, universe 4x the list size. The totals straddle
  // kScanCountMaxElements; scan-count's table (8 bytes x 2x the total,
  // rounded up to a power of two) grows from 4 KiB to 16 MiB. 6x131072 is
  // the size where heap-merge overtakes scan-count (threshold.h).
  Rng rng(7);
  for (const size_t list_size : {32ul, 512ul, 1'024ul, 2'048ul, 4'096ul,
                                 8'192ul, 16'384ul, 32'768ul, 131'072ul}) {
    ThresholdShape& shape =
        shapes.emplace_back("6x" + std::to_string(list_size), 3);
    const auto universe = static_cast<uint32_t>(list_size * 4);
    for (size_t i = 0; i < 6; ++i) {
      shape.storage.push_back(SortedRandom(list_size, universe, &rng));
    }
    if (6 * list_size <= kScanCountMaxElements) shape.universe = universe;
  }
  // Celebrity: 2x64 + one huge list, k=2 — the shape candidate-verify
  // exists for.
  for (const size_t celebrity : {10'000ul, 100'000ul}) {
    Rng crng(11);
    ThresholdShape& shape =
        shapes.emplace_back("celebrity-" + std::to_string(celebrity), 2);
    shape.storage.push_back(SortedRandom(64, 1'000'000, &crng));
    shape.storage.push_back(SortedRandom(64, 1'000'000, &crng));
    shape.storage.push_back(SortedRandom(celebrity, 1'000'000, &crng));
  }
  // Serving: a motif query of the `one-daemon` stream (bench_serving) —
  // k=3, about 300 elements, 80% of them in the largest list, and a
  // universe sparse enough for about 0.3 matches per query.
  for (const size_t num_lists : {4ul, 6ul}) {
    constexpr uint32_t kServingUniverse = 1'000;
    constexpr size_t kLargest = 240;
    Rng srng(13);
    ThresholdShape& shape = shapes.emplace_back(
        "serving-" + std::to_string(num_lists) + "x300", 3);
    shape.universe = kServingUniverse;
    shape.storage.push_back(SortedRandom(kLargest, kServingUniverse, &srng));
    for (size_t i = 1; i < num_lists; ++i) {
      shape.storage.push_back(SortedRandom(
          (300 - kLargest) / (num_lists - 1), kServingUniverse, &srng));
    }
  }

  std::vector<std::vector<double>> best(
      shapes.size(), std::vector<double>(std::size(kVariants),
                                         std::numeric_limits<double>::infinity()));
  std::vector<ThresholdMatch> out;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      const std::vector<std::span<const VertexId>> lists(
          shapes[s].storage.begin(), shapes[s].storage.end());
      VertexCountTable table(shapes[s].universe);
      for (size_t v = 0; v < std::size(kVariants); ++v) {
        const ThresholdVariant variant = kVariants[v];
        if (variant.table && shapes[s].universe == 0) continue;
        best[s][v] = std::min(best[s][v], TimePerCall([&] {
                                ThresholdIntersect(
                                    lists, shapes[s].k, &out, variant.algo,
                                    nullptr, variant.table ? &table : nullptr);
                              }));
      }
    }
  }

  std::printf("--- k-of-n: us/op, speedup vs heap-merge in parens ---\n");
  std::printf("%16s %8s %16s %16s %16s %16s %16s %16s %16s\n", "shape",
              "elems", "heap-merge", "scan-count", "cand-verify", "auto",
              "scan+table", "verify+table", "auto+table");
  for (size_t s = 0; s < shapes.size(); ++s) {
    const std::vector<std::span<const VertexId>> lists(
        shapes[s].storage.begin(), shapes[s].storage.end());
    double total_elems = 0;
    for (const auto& list : lists) {
      total_elems += static_cast<double>(list.size());
    }
    const double heap_merge = best[s][0];
    std::printf("%16s %8.0f", shapes[s].name.c_str(), total_elems);
    for (size_t v = 0; v < std::size(kVariants); ++v) {
      if (kVariants[v].table && shapes[s].universe == 0) {
        std::printf(" %16s", "-");
        continue;
      }
      std::printf(" %8.1f (%3.1fx)", best[s][v] * 1e6, heap_merge / best[s][v]);
      rows->AddKernel("threshold", kVariants[v].Name().c_str(),
                      shapes[s].name.c_str(), total_elems / best[s][v] / 1e6,
                      heap_merge / best[s][v]);
    }
    std::printf("  auto=%s matches=%zu\n",
                ThresholdAlgorithmName(
                    SelectThresholdAlgorithm(lists, shapes[s].k)).data(),
                ThresholdIntersect(lists, shapes[s].k, &out));
  }
  std::printf("\nauto: candidate-verify when k >= 2 and the largest list "
              "holds a third of the input; otherwise scan-count up to "
              "kScanCountMaxElements = %zu, heap-merge above\n\n",
              kScanCountMaxElements);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  std::printf("=== A1: intersection (avx2=%s, simd=%s) ===\n\n",
              CpuSupportsAvx2() ? "yes" : "no",
              SimdEnabled() ? "on" : "off");
  bench::JsonRows rows;
  HubProbeSweep(&rows, check);
  ThresholdSweep(&rows);
  rows.MergeWrite(kJsonPath);

  if (g_check_failed) {
    std::fprintf(stderr, "\nbench_intersection --check FAILED\n");
    return 1;
  }
  return 0;
}
