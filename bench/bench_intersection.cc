// Ablation A1 — the intersection kernel ("intersections can be implemented
// efficiently using well-known algorithms", §2).
//
// Plain-printf harness (no Google Benchmark dependency, so CI can run it):
//
//   * pairwise ratio sweep: scalar merge vs galloping vs their AVX2
//     variants across size ratios — the crossover table behind
//     kGallopRatioThreshold (methodology: docs/experiments-a1.md);
//   * hub shapes: bitset ∩ array and bitset ∩ bitset against the scalar
//     merge on hub-degree lists — the crossover behind
//     AutoHubDegreeThreshold;
//   * k-of-n: scan-count vs heap-merge vs candidate-verify on balanced
//     shapes around kScanCountMaxElements, plus the celebrity list
//     candidate-verify exists for.
//
// Emits the machine-readable "intersect" and "threshold" sections into
// BENCH_net.json (merged; other benches' sections are preserved). The
// "speedup" field is time(reference)/time(kernel) on the same shape —
// scalar merge for "intersect", heap-merge for "threshold" — machine-
// independent, so tools/check_bench_regression.py gates on it.
//
// Exit status: --check additionally fails (exit 1) unless the hub-skew
// bitset rows hold a >= 2x speedup over scalar merge and the SIMD merge
// beats scalar on the balanced row (skipped without AVX2).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "bench_json.h"
#include "intersect/bitset.h"
#include "intersect/intersect.h"
#include "intersect/simd.h"
#include "intersect/threshold.h"
#include "graph/static_graph.h"
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

struct KernelTime {
  const char* name;
  double seconds;  // per intersection
};

/// One pairwise shape: |small| fixed, ratio sweeps. Returns the per-kernel
/// times, scalar-merge first (the speedup reference).
std::vector<KernelTime> TimePairwise(const std::vector<VertexId>& a,
                                     const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  out.reserve(std::min(a.size(), b.size()));
  std::vector<KernelTime> times;
  for (const IntersectKernel kernel :
       {IntersectKernel::kScalarMerge, IntersectKernel::kScalarGalloping,
        IntersectKernel::kSimdMerge, IntersectKernel::kSimdGalloping,
        IntersectKernel::kAuto}) {
    const double seconds = TimePerCall([&] {
      out.clear();
      Intersect(a, b, &out, kernel);
    });
    times.push_back({IntersectKernelName(kernel).data(), seconds});
  }
  return times;
}

constexpr const char* kJsonPath = "BENCH_net.json";

bool g_check_failed = false;

void RequireSpeedup(const char* what, double speedup, double floor) {
  if (speedup < floor) {
    std::fprintf(stderr, "CHECK FAILED: %s speedup %.2fx < %.2fx\n", what,
                 speedup, floor);
    g_check_failed = true;
  }
}

void PairwiseSweep(bench::JsonRows* rows, bool check) {
  std::printf("--- pairwise, |small|=4096, universe=4M ---\n");
  std::printf("%10s", "ratio");
  for (const char* name :
       {"scalar-merge", "scalar-gallop", "simd-merge", "simd-gallop", "auto"}) {
    std::printf(" %14s", name);
  }
  std::printf("   (us/op; speedup vs scalar-merge in parens)\n");

  Rng rng(42);
  const size_t small_size = 4'096;
  const auto small = SortedRandom(small_size, 4'000'000, &rng);
  for (const size_t ratio : {1ul, 4ul, 8ul, 16ul, 32ul, 64ul, 256ul, 1024ul}) {
    const uint32_t universe = static_cast<uint32_t>(
        std::max<size_t>(4'000'000, 4 * small_size * ratio));
    const auto large = SortedRandom(small_size * ratio, universe, &rng);
    const auto times = TimePairwise(small, large);
    const double scalar_merge = times[0].seconds;
    const double total_elems =
        static_cast<double>(small.size() + large.size());
    std::printf("%9zu:1", ratio);
    for (const KernelTime& t : times) {
      std::printf(" %8.1f (%3.1fx)", t.seconds * 1e6, scalar_merge / t.seconds);
    }
    std::printf("\n");
    const std::string shape = "ratio-" + std::to_string(ratio);
    for (const KernelTime& t : times) {
      rows->AddKernel("intersect", t.name, shape.c_str(),
                      total_elems / t.seconds / 1e6, scalar_merge / t.seconds);
    }
    if (check && ratio == 1 && SimdEnabled()) {
      // times[2] is simd-merge; on the balanced row the AVX2 block merge
      // must beat the scalar merge outright.
      RequireSpeedup("simd-merge on ratio-1", scalar_merge / times[2].seconds,
                     1.0);
    }
  }
  std::printf("\nkGallopRatioThreshold = %zu (crossover: gallop wins from "
              "the ratio where its column beats merge)\n\n",
              kGallopRatioThreshold);
}

void HubSweep(bench::JsonRows* rows, bool check) {
  // Hub shapes: both lists are hub-degree over a 1M-vertex universe. The
  // bitset kernels get the bitmap for free in production (the hub index is
  // built once per graph load), so FillBitset is outside the timed region.
  constexpr size_t kUniverse = 1'000'000;
  Rng rng(7);
  std::printf("--- hub shapes, universe=1M (bitmaps prebuilt, as in the "
              "hub index) ---\n");
  std::printf("%22s %14s %14s %10s\n", "shape", "kernel", "us/op", "speedup");

  const auto hub_a = SortedRandom(kUniverse / 10, kUniverse, &rng);
  const auto hub_b = SortedRandom(kUniverse / 10, kUniverse, &rng);
  const auto tail = SortedRandom(1'000, kUniverse, &rng);
  std::vector<uint64_t> wa, wb;
  FillBitset(hub_a, kUniverse, &wa);
  FillBitset(hub_b, kUniverse, &wb);
  const BitsetView va{wa.data(), wa.size()};
  const BitsetView vb{wb.data(), wb.size()};

  std::vector<VertexId> out;
  out.reserve(kUniverse / 10);

  // hub ∩ hub: AND + popcount vs scalar merge of two 100k lists.
  {
    const double scalar = TimePerCall([&] {
      out.clear();
      IntersectMerge(hub_a, hub_b, &out);
    });
    const double bitset = TimePerCall([&] {
      out.clear();
      IntersectBitsetBitset(va, vb, &out);
    });
    const double count_only = TimePerCall(
        [&] { (void)IntersectBitsetBitsetCount(va, vb); });
    const double elems = static_cast<double>(hub_a.size() + hub_b.size());
    std::printf("%22s %14s %14.1f %9.1fx\n", "hub-hub 100k:100k",
                "scalar-merge", scalar * 1e6, 1.0);
    std::printf("%22s %14s %14.1f %9.1fx\n", "", "bitset-bitset",
                bitset * 1e6, scalar / bitset);
    std::printf("%22s %14s %14.1f %9.1fx\n", "", "bitset-count",
                count_only * 1e6, scalar / count_only);
    rows->AddKernel("intersect", "scalar-merge", "hub-hub", elems / scalar / 1e6,
                    1.0);
    rows->AddKernel("intersect", "bitset-bitset", "hub-hub",
                    elems / bitset / 1e6, scalar / bitset);
    rows->AddKernel("intersect", "bitset-count", "hub-hub",
                    elems / count_only / 1e6, scalar / count_only);
    if (check) {
      RequireSpeedup("bitset-bitset on hub-hub", scalar / bitset, 2.0);
    }
  }

  // hub ∩ array: O(1) probes vs galloping the 100k list (what
  // CandidateVerify did before the hub index existed).
  {
    const double scalar = TimePerCall([&] {
      out.clear();
      IntersectGalloping(tail, hub_a, &out);
    });
    const double bitset = TimePerCall([&] {
      out.clear();
      IntersectBitsetArray(va, tail, &out);
    });
    const double elems = static_cast<double>(tail.size());
    std::printf("%22s %14s %14.1f %9.1fx\n", "hub-array 100k:1k",
                "scalar-gallop", scalar * 1e6, 1.0);
    std::printf("%22s %14s %14.1f %9.1fx\n", "", "bitset-array",
                bitset * 1e6, scalar / bitset);
    rows->AddKernel("intersect", "scalar-galloping", "hub-array",
                    elems / scalar / 1e6, 1.0);
    rows->AddKernel("intersect", "bitset-array", "hub-array",
                    elems / bitset / 1e6, scalar / bitset);
    if (check) {
      RequireSpeedup("bitset-array on hub-array", scalar / bitset, 2.0);
    }
  }

  // Hub-degree crossover: at which density does the bitmap probe beat the
  // merge? This is the measurement AutoHubDegreeThreshold encodes
  // (num_vertices/32, floored at kMinHubDegree).
  std::printf("\n%22s %14s %14s %10s\n", "density (1/x)", "merge us",
              "bitset us", "speedup");
  for (const size_t inv_density : {8ul, 16ul, 32ul, 64ul, 128ul}) {
    const auto list = SortedRandom(kUniverse / inv_density, kUniverse, &rng);
    std::vector<uint64_t> w;
    FillBitset(list, kUniverse, &w);
    const BitsetView view{w.data(), w.size()};
    const double merge = TimePerCall([&] {
      out.clear();
      IntersectMerge(list, hub_a, &out);
    });
    const double bitset = TimePerCall([&] {
      out.clear();
      IntersectBitsetArray(view, hub_a, &out);
    });
    std::printf("%22zu %14.1f %14.1f %9.1fx\n", inv_density, merge * 1e6,
                bitset * 1e6, merge / bitset);
  }
  std::printf("\nAutoHubDegreeThreshold: degree >= num_vertices/32 "
              "(bitmap <= 2x array memory), floor %zu\n\n", kMinHubDegree);
}

struct ThresholdShape {
  std::string name;
  size_t k;
  std::vector<std::vector<VertexId>> storage;
};

/// Times every algorithm on every k-of-n shape and emits one "threshold" row
/// per (shape, algorithm); heap-merge is the speedup reference, as in the
/// ablation tables. The whole sweep runs several rounds and each cell keeps
/// its best time, so a burst of interference on a shared host cannot cover
/// every round of one shape, nor land on one side of a ratio.
void ThresholdSweep(bench::JsonRows* rows) {
  constexpr ThresholdAlgorithm kAlgos[] = {
      ThresholdAlgorithm::kHeapMerge, ThresholdAlgorithm::kScanCount,
      ThresholdAlgorithm::kCandidateVerify, ThresholdAlgorithm::kAuto};
  constexpr int kRounds = 5;
  std::vector<ThresholdShape> shapes;
  // Balanced: 6 lists, k=3, universe 4x the list size. The totals straddle
  // kScanCountMaxElements; scan-count's table (8 bytes x 2x the total,
  // rounded up to a power of two) grows from 4 KiB to 4 MiB.
  Rng rng(7);
  for (const size_t list_size :
       {32ul, 512ul, 1'024ul, 2'048ul, 4'096ul, 8'192ul, 16'384ul, 32'768ul}) {
    ThresholdShape& shape =
        shapes.emplace_back("6x" + std::to_string(list_size), 3);
    for (size_t i = 0; i < 6; ++i) {
      shape.storage.push_back(SortedRandom(
          list_size, static_cast<uint32_t>(list_size * 4), &rng));
    }
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

  std::vector<std::vector<double>> best(
      shapes.size(), std::vector<double>(std::size(kAlgos),
                                         std::numeric_limits<double>::infinity()));
  std::vector<ThresholdMatch> out;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      const std::vector<std::span<const VertexId>> lists(
          shapes[s].storage.begin(), shapes[s].storage.end());
      for (size_t a = 0; a < std::size(kAlgos); ++a) {
        best[s][a] = std::min(best[s][a], TimePerCall([&] {
                                ThresholdIntersect(lists, shapes[s].k, &out,
                                                   kAlgos[a]);
                              }));
      }
    }
  }

  std::printf("--- k-of-n: us/op, speedup vs heap-merge in parens ---\n");
  std::printf("%16s %8s %16s %16s %16s %16s\n", "shape", "elems",
              "heap-merge", "scan-count", "cand-verify", "auto");
  for (size_t s = 0; s < shapes.size(); ++s) {
    const std::vector<std::span<const VertexId>> lists(
        shapes[s].storage.begin(), shapes[s].storage.end());
    double total_elems = 0;
    for (const auto& list : lists) {
      total_elems += static_cast<double>(list.size());
    }
    const double heap_merge = best[s][0];
    std::printf("%16s %8.0f", shapes[s].name.c_str(), total_elems);
    for (size_t a = 0; a < std::size(kAlgos); ++a) {
      std::printf(" %8.1f (%3.1fx)", best[s][a] * 1e6, heap_merge / best[s][a]);
      rows->AddKernel("threshold", ThresholdAlgorithmName(kAlgos[a]).data(),
                      shapes[s].name.c_str(), total_elems / best[s][a] / 1e6,
                      heap_merge / best[s][a]);
    }
    std::printf("  auto=%s\n",
                ThresholdAlgorithmName(
                    SelectThresholdAlgorithm(lists, shapes[s].k)).data());
  }
  std::printf("\nkScanCountMaxElements = %zu (auto: scan-count up to it, "
              "heap-merge above)\n\n",
              kScanCountMaxElements);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  std::printf("=== A1: intersection kernels (avx2=%s, simd=%s) ===\n\n",
              CpuSupportsAvx2() ? "yes" : "no",
              SimdEnabled() ? "on" : "off");
  bench::JsonRows rows;
  PairwiseSweep(&rows, check);
  HubSweep(&rows, check);
  ThresholdSweep(&rows);
  rows.MergeWrite(kJsonPath);

  if (g_check_failed) {
    std::fprintf(stderr, "\nbench_intersection --check FAILED\n");
    return 1;
  }
  return 0;
}
