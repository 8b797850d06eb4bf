// k-of-n threshold intersection: given n sorted lists, find the elements that
// appear in at least k of them. This is the exact kernel of the diamond
// motif's bottom half — find the A's that follow >= k of the B's who just
// followed C (§2; the paper's worked example is k=2, production is k=3).
//
// Three classic strategies, selectable for the A1 ablation:
//   * ScanCount  — count every occurrence; O(total), wins while its table
//                  fits in L2 (kScanCountMaxElements). An id is collected
//                  the moment its count reaches k, so no pass over the
//                  table is needed; the collected ids are then sorted and
//                  their final counts read back.
//   * HeapMerge  — n-way merge with a min-heap, counting runs of equal
//                  values; O(total * log n), memory-light, output sorted for
//                  free.
//   * CandidateVerify — count every list except the largest; an id whose
//                  count reaches k-1 is a candidate, and one probe of the
//                  largest list (a hub-bitmap bit test, or a galloping
//                  cursor) completes its count exactly. Wins when one list
//                  holds much of the input: the follow graph's popularity
//                  skew makes that the common serving query, and a
//                  celebrity B the extreme one. Probing one list, not the
//                  k-1 largest, keeps the candidates few: an id needs k-1
//                  counts before it is probed at all.
//
// Every kernel also reports which lists hold each match: bit i of
// ThresholdMatch::lists is set iff lists[i] holds the id, for i below
// kMatchListBits (64); lists from the 65th on set no bit, so a caller that
// gathers more lists must probe those itself. The serving query half reads
// a record's witnesses straight from the mask, with no second pass over
// the lists.
//
// The counts live in one of two tables. A caller whose ids are all below a
// known bound (a StaticGraph's lists are below its neighbor_universe())
// passes a VertexCountTable: one 16-byte cell {epoch, count, lists} per id,
// indexed directly, which is what the serving query half does. Any other
// caller counts in a per-thread (thread_local) open-addressing hash table
// (linear probing, 16-byte slots {id, count, lists}, sized to >= 2x the
// call's input) that records the slots each call fills and empties exactly
// those on the next call; it only grows, keeping the capacity of the
// largest input the thread has counted. Either way a warm call allocates
// nothing, and concurrent callers share no state.

#ifndef MAGICRECS_INTERSECT_THRESHOLD_H_
#define MAGICRECS_INTERSECT_THRESHOLD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "intersect/bitset.h"
#include "util/types.h"

namespace magicrecs {

/// Lists a match mask can name: ThresholdMatch::lists has one bit for each
/// of the first kMatchListBits lists of a query.
inline constexpr size_t kMatchListBits = 64;

/// An element matched by a threshold intersection, with the number of input
/// lists it occurred in (count >= the query's k) and the mask of those
/// lists among the first kMatchListBits (bit i: lists[i] holds the id).
struct ThresholdMatch {
  VertexId id = kInvalidVertex;
  uint32_t count = 0;
  uint64_t lists = 0;

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

/// Per-vertex counts over the ids [0, universe), one 16-byte cell per id:
/// the epoch of the count that last wrote it, the count, and the mask of
/// the lists it was counted in. A cell from an earlier count reads as zero,
/// so starting a count is one epoch increment, plus one refill of every
/// cell when the epoch wraps, and nothing is cleared per call. Counts are
/// exact (32 bits) for any number of lists. Thread-compatible: one owner
/// counts in it at a time, and a copy owns its own cells.
class VertexCountTable {
 public:
  explicit VertexCountTable(size_t universe = 0) : cells_(universe) {}

  size_t universe() const { return cells_.size(); }

  /// Starts a count: every cell reads zero.
  void Begin() {
    if (++epoch_ == 0) {
      std::fill(cells_.begin(), cells_.end(), Cell{});
      epoch_ = 1;
    }
  }

  /// Counts one occurrence of v (v < universe) in the list whose mask bit
  /// is `list_bit` (0 for a list without one) and returns v's new count.
  uint32_t Add(VertexId v, uint64_t list_bit) {
    Cell& cell = cells_[v];
    const bool stale = cell.epoch != epoch_;
    const uint32_t count = (stale ? 0 : cell.count) + 1;
    const uint64_t lists = (stale ? 0 : cell.lists) | list_bit;
    cell = Cell{epoch_, count, lists};
    return count;
  }

  /// Sets v's count (v < universe) for the current count, with no lists.
  void Set(VertexId v, uint32_t value) { cells_[v] = Cell{epoch_, value, 0}; }

  /// v's count in the current count: zero unless added or set since
  /// Begin().
  uint32_t Get(VertexId v) const { return Read(v).count; }

  /// v's count and list mask in the current count.
  ThresholdMatch Read(VertexId v) const {
    const Cell& cell = cells_[v];
    if (cell.epoch != epoch_) return ThresholdMatch{v, 0, 0};
    return ThresholdMatch{v, cell.count, cell.lists};
  }

  /// Sets the epoch the next Begin() increments, so tests reach the wrap
  /// without 2^32 counts.
  void SetEpochForTesting(uint32_t epoch) { epoch_ = epoch; }

 private:
  struct Cell {
    uint32_t epoch = 0;
    uint32_t count = 0;
    uint64_t lists = 0;
  };

  std::vector<Cell> cells_;
  uint32_t epoch_ = 0;
};

/// Computes the elements present in >= k of `lists` (each sorted ascending,
/// duplicate-free), each with its count and its mask of the first
/// kMatchListBits lists. Results are appended to *out (cleared first) in
/// ascending id order. Returns the number of matches.
///
/// k == 0 is treated as k == 1. If k > lists.size() the result is empty.
///
/// `bitsets`, when non-null, runs parallel to `lists`: entry i is an O(1)
/// membership view of lists[i] (a hub's bitmap from StaticGraph::HubBitset),
/// or an empty view when none exists. CandidateVerify probes the largest
/// list with one bit test instead of a galloping search when that list has
/// a view; results are identical with or without the views.
///
/// `table`, when non-null, is where ScanCount and CandidateVerify count, in
/// place of the per-thread hash table. The caller promises that every id in
/// `lists` is below table->universe() (debug builds assert it); results
/// are identical with or without it.
size_t ThresholdIntersect(const std::vector<std::span<const VertexId>>& lists,
                          size_t k, std::vector<ThresholdMatch>* out,
                          ThresholdAlgorithm algo = ThresholdAlgorithm::kAuto,
                          const std::vector<BitsetView>* bitsets = nullptr,
                          VertexCountTable* table = nullptr);

/// kAuto's cut between ScanCount and HeapMerge, in total input elements
/// (docs/experiments-a1.md). The cut is where ScanCount's hash table stops
/// fitting in L2: 65536 elements need 131072 16-byte slots, 2 MiB, plus the
/// touched list. On six balanced lists (k=3) ScanCount still beats HeapMerge
/// above it, 1.8x at 98,304 elements and 1.1-1.4x at 196,608, but HeapMerge
/// overtakes it by 786,432 (6x131072: ScanCount runs at 0.7-0.8x, 0.4x with
/// k=1; 0.7x at 6x524288), which is why HeapMerge stays. With 16-64 lists
/// ScanCount keeps winning at 131k-1M elements. No serving query comes near the
/// cut (the largest had 6,648 elements).
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
