// k-of-n threshold intersection: given n sorted lists, find the elements that
// appear in at least k of them. This is the exact kernel of the diamond
// motif's bottom half — find the A's that follow >= k of the B's who just
// followed C (§2; the paper's worked example is k=2, production is k=3).
//
// Three classic strategies, selectable for the A1 ablation:
//   * ScanCount  — hash-count every occurrence; O(total), wins while its
//                  table fits in L2 (kScanCountMaxElements). The counts live
//                  in a flat open-addressing table (linear probing, 8 bytes
//                  per slot, sized to >= 2x the call's input) that is
//                  reused across calls: each call records the slots it
//                  fills and the next call empties exactly those, so a
//                  warm call allocates nothing and never scans the table.
//   * HeapMerge  — n-way merge with a min-heap, counting runs of equal
//                  values; O(total * log n), memory-light, output sorted for
//                  free.
//   * CandidateVerify — count every list except the largest in the same
//                  reused table; an id counted >= k-1 times is a candidate,
//                  and one probe of the largest list (a hub-bitmap bit test,
//                  or a galloping cursor) completes its count exactly. Wins
//                  when one list holds much of the input: the follow graph's
//                  popularity skew makes that the common serving query, and
//                  a celebrity B the extreme one. Probing one list, not the
//                  k-1 largest, keeps the candidates few: an id needs k-1
//                  counts before it is probed at all.
//
// The table and CandidateVerify's candidate vector are per-thread scratch
// (thread_local), so concurrent callers never share state and the
// signature carries no scratch argument. The scratch only grows: a thread
// keeps the capacity of the largest input it has counted.

#ifndef MAGICRECS_INTERSECT_THRESHOLD_H_
#define MAGICRECS_INTERSECT_THRESHOLD_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "intersect/bitset.h"
#include "util/types.h"

namespace magicrecs {

/// An element matched by a threshold intersection, with the number of input
/// lists it occurred in (count >= the query's k).
struct ThresholdMatch {
  VertexId id = kInvalidVertex;
  uint32_t count = 0;

  friend bool operator==(const ThresholdMatch&,
                         const ThresholdMatch&) = default;
};

enum class ThresholdAlgorithm {
  kAuto = 0,
  kScanCount,
  kHeapMerge,
  kCandidateVerify,
};

std::string_view ThresholdAlgorithmName(ThresholdAlgorithm algo);

/// Computes the elements present in >= k of `lists` (each sorted ascending,
/// duplicate-free). Results are appended to *out (cleared first) in
/// ascending id order. Returns the number of matches.
///
/// k == 0 is treated as k == 1. If k > lists.size() the result is empty.
///
/// `bitsets`, when non-null, runs parallel to `lists`: entry i is an O(1)
/// membership view of lists[i] (a hub's bitmap from StaticGraph::HubBitset),
/// or an empty view when none exists. CandidateVerify probes the largest
/// list with one bit test instead of a galloping search when that list has
/// a view; results are identical with or without the views.
size_t ThresholdIntersect(const std::vector<std::span<const VertexId>>& lists,
                          size_t k, std::vector<ThresholdMatch>* out,
                          ThresholdAlgorithm algo = ThresholdAlgorithm::kAuto,
                          const std::vector<BitsetView>* bitsets = nullptr);

/// kAuto's cut between ScanCount and HeapMerge, in total input elements
/// (docs/experiments-a1.md). The cut is where ScanCount's table stops
/// fitting in L2: 65536 elements need 131072 slots, 1 MiB, plus the touched
/// list. On six balanced lists (k=3) ScanCount still beats HeapMerge above
/// it, 1.8x at 98,304 elements and 1.1-1.4x at 196,608, but HeapMerge
/// overtakes it by 786,432 (6x131072: ScanCount runs at 0.7-0.8x, 0.4x with
/// k=1; 0.7x at 6x524288), which is why HeapMerge stays. With 16-64 lists
/// ScanCount keeps winning at 131k-1M elements. No serving query comes near
/// the cut (the largest had 6,648 elements).
inline constexpr size_t kScanCountMaxElements = 65536;

/// The heuristic used by kAuto, exposed for tests and benches: picks
/// CandidateVerify when k >= 2 and the largest list holds at least a third
/// of the input elements (2 * largest >= the rest), ScanCount for other
/// inputs of at most kScanCountMaxElements, HeapMerge otherwise. With
/// k < 2 an id may occur only in the largest list, so CandidateVerify
/// (which never counts that list) is not picked, and a forced
/// kCandidateVerify runs ScanCount.
ThresholdAlgorithm SelectThresholdAlgorithm(
    const std::vector<std::span<const VertexId>>& lists, size_t k);

}  // namespace magicrecs

#endif  // MAGICRECS_INTERSECT_THRESHOLD_H_
