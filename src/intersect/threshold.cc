#include "intersect/threshold.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>

#include "intersect/simd.h"

namespace magicrecs {

std::string_view ThresholdAlgorithmName(ThresholdAlgorithm algo) {
  switch (algo) {
    case ThresholdAlgorithm::kAuto:
      return "auto";
    case ThresholdAlgorithm::kScanCount:
      return "scan-count";
    case ThresholdAlgorithm::kHeapMerge:
      return "heap-merge";
    case ThresholdAlgorithm::kCandidateVerify:
      return "candidate-verify";
  }
  return "unknown";
}

namespace {

/// Open-addressing id -> {occurrence count, list mask} table, reused by
/// every call on a thread that passes no VertexCountTable. Linear probing,
/// multiplicative (Fibonacci) hashing, power-of-two sizes. kInvalidVertex
/// marks an empty slot, so a real occurrence of that id is counted on the
/// side. Every slot a call fills is listed in touched_, and the next Begin()
/// empties exactly those slots — nothing ever scans or clears the whole
/// table.
class CountTable {
 public:
  /// Starts a count over `total` list elements: empties what the previous
  /// count filled and sizes this count's slot range to >= 2 * total. The
  /// backing storage only grows.
  void Begin(size_t total) {
    for (const size_t slot : touched_) slots_[slot] = Slot{};
    touched_.clear();
    invalid_ = Slot{};
    const size_t capacity =
        std::bit_ceil(std::max<size_t>(2 * total, kMinSlots));
    if (capacity > slots_.size()) slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
  }

  /// Counts one occurrence of v in the list whose mask bit is `list_bit`
  /// and returns v's count so far.
  uint32_t Add(VertexId v, uint64_t list_bit) {
    if (v == kInvalidVertex) return Count(invalid_, list_bit);
    for (size_t i = Home(v);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.id == v) return Count(slot, list_bit);
      if (slot.id == kInvalidVertex) {
        touched_.push_back(i);  // first, so a throw leaves no unlisted slot
        slot = Slot{v, 1, list_bit};
        return 1;
      }
    }
  }

  /// v's count and list mask since Begin() (zero if never added).
  ThresholdMatch Read(VertexId v) const {
    const Slot& slot = Find(v);
    return ThresholdMatch{v, slot.count, slot.lists};
  }

 private:
  struct Slot {
    VertexId id = kInvalidVertex;
    uint32_t count = 0;
    uint64_t lists = 0;
  };
  static constexpr size_t kMinSlots = 16;

  static uint32_t Count(Slot& slot, uint64_t list_bit) {
    slot.lists |= list_bit;
    return ++slot.count;
  }

  size_t Home(VertexId v) const {
    return static_cast<size_t>((uint64_t{v} * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  /// v's slot, or an empty one when v was never added.
  const Slot& Find(VertexId v) const {
    static constexpr Slot kEmpty;
    if (v == kInvalidVertex) return invalid_;
    for (size_t i = Home(v);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == v) return slot;
      if (slot.id == kInvalidVertex) return kEmpty;
    }
  }

  std::vector<Slot> slots_;
  std::vector<size_t> touched_;
  Slot invalid_;  ///< kInvalidVertex's count and mask
  size_t mask_ = 0;
  int shift_ = 64;
};

/// The per-thread hash table; once warm, counting in it allocates nothing.
CountTable& ThreadCounts() {
  thread_local CountTable counts;
  return counts;
}

// The two tables start a count differently: the hash table sizes its slot
// range to the input, the vertex table only moves its epoch.
void BeginCount(CountTable& counts, size_t total) { counts.Begin(total); }
void BeginCount(VertexCountTable& counts, size_t /*total*/) { counts.Begin(); }

/// lists[i]'s bit in a match mask; lists past the mask's width have none.
uint64_t ListBit(size_t i) {
  return i < kMatchListBits ? uint64_t{1} << i : 0;
}

bool IdLess(const ThresholdMatch& a, const ThresholdMatch& b) {
  return a.id < b.id;
}

/// Sorts the ids collected in *out and reads each one's count and mask
/// back.
template <typename Table>
void SortAndReadCounts(const Table& counts, std::vector<ThresholdMatch>* out) {
  std::sort(out->begin(), out->end(), IdLess);
  for (ThresholdMatch& match : *out) match = counts.Read(match.id);
}

template <typename Table>
size_t ScanCount(const std::vector<std::span<const VertexId>>& lists, size_t k,
                 std::vector<ThresholdMatch>* out, Table& counts) {
  size_t total = 0;
  for (const auto& list : lists) total += list.size();
  BeginCount(counts, total);
  for (size_t i = 0; i < lists.size(); ++i) {
    const uint64_t bit = ListBit(i);
    for (const VertexId v : lists[i]) {
      if (counts.Add(v, bit) == k) out->push_back(ThresholdMatch{v});
    }
  }
  SortAndReadCounts(counts, out);
  return out->size();
}

size_t HeapMerge(const std::vector<std::span<const VertexId>>& lists, size_t k,
                 std::vector<ThresholdMatch>* out) {
  // Min-heap of (head value, list index). Runs of equal popped values give
  // the occurrence count and the mask directly because lists are
  // duplicate-free.
  using Head = std::pair<VertexId, uint32_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
  std::vector<size_t> pos(lists.size(), 0);
  for (uint32_t i = 0; i < lists.size(); ++i) {
    if (!lists[i].empty()) heap.emplace(lists[i][0], i);
  }
  while (!heap.empty()) {
    ThresholdMatch match{heap.top().first};
    while (!heap.empty() && heap.top().first == match.id) {
      const uint32_t list = heap.top().second;
      heap.pop();
      ++match.count;
      match.lists |= ListBit(list);
      if (++pos[list] < lists[list].size()) {
        heap.emplace(lists[list][pos[list]], list);
      }
    }
    if (match.count >= k) out->push_back(match);
  }
  return out->size();
}

/// Empty view when no bitsets were provided for this query.
BitsetView BitsetFor(const std::vector<BitsetView>* bitsets, size_t index) {
  if (bitsets == nullptr || index >= bitsets->size()) return {};
  return (*bitsets)[index];
}

template <typename Table>
size_t CandidateVerify(const std::vector<std::span<const VertexId>>& lists,
                       size_t k, std::vector<ThresholdMatch>* out,
                       const std::vector<BitsetView>* bitsets, Table& counts) {
  // With k < 2 an id may occur only in the largest list, which is never
  // counted here.
  if (k < 2) return ScanCount(lists, k, out, counts);
  size_t big = 0, total = 0;
  for (size_t i = 0; i < lists.size(); ++i) {
    total += lists[i].size();
    if (lists[i].size() > lists[big].size()) big = i;
  }

  // Count every list but the largest. An id counted k-1 times is a
  // candidate: one hit in the largest list can still lift it to k.
  BeginCount(counts, total - lists[big].size());
  for (size_t i = 0; i < lists.size(); ++i) {
    if (i == big) continue;
    const uint64_t bit = ListBit(i);
    for (const VertexId v : lists[i]) {
      if (counts.Add(v, bit) + 1 == k) out->push_back(ThresholdMatch{v});
    }
  }
  SortAndReadCounts(counts, out);

  // Probe each candidate once in the largest list: one bit test of its hub
  // bitmap, or a galloping cursor that only moves forward because the
  // candidates are sorted. A hit completes the count and sets the largest
  // list's bit; the matches are compacted in place.
  const auto list = lists[big];
  const BitsetView bits = BitsetFor(bitsets, big);
  const uint64_t big_bit = ListBit(big);
  size_t pos = 0;
  auto match = out->begin();
  for (ThresholdMatch cand : *out) {
    bool hit = false;
    if (!bits.empty()) {
      hit = bits.Test(cand.id);
    } else if (pos < list.size()) {
      pos = SimdGallopLowerBound(list, pos, cand.id);
      hit = pos < list.size() && list[pos] == cand.id;
      if (hit) ++pos;
    }
    if (hit) {
      ++cand.count;
      cand.lists |= big_bit;
    }
    if (cand.count >= k) *match++ = cand;
  }
  out->erase(match, out->end());
  return out->size();
}

/// Whether every id in `lists` is below `universe` (the lists are sorted,
/// so their backs are their largest ids).
[[maybe_unused]] bool AllBelow(
    const std::vector<std::span<const VertexId>>& lists, size_t universe) {
  return std::all_of(lists.begin(), lists.end(), [&](const auto& list) {
    return list.empty() || list.back() < universe;
  });
}

/// Calls fn with the caller's vertex table when there is one, else with
/// the per-thread hash table.
template <typename Fn>
size_t WithCounts(VertexCountTable* table, Fn&& fn) {
  return table != nullptr ? fn(*table) : fn(ThreadCounts());
}

}  // namespace

ThresholdAlgorithm SelectThresholdAlgorithm(
    const std::vector<std::span<const VertexId>>& lists, size_t k) {
  size_t total = 0, largest = 0;
  for (const auto& l : lists) {
    total += l.size();
    largest = std::max(largest, l.size());
  }
  // The largest list holds at least a third of the input: candidate-verify
  // probes it per candidate instead of counting it. With k >= 2 a candidate
  // needs k-1 counts from the other lists first, and few ids have them.
  if (k >= 2 && 2 * largest >= total - largest) {
    return ThresholdAlgorithm::kCandidateVerify;
  }
  if (total <= kScanCountMaxElements) return ThresholdAlgorithm::kScanCount;
  return ThresholdAlgorithm::kHeapMerge;
}

size_t ThresholdIntersect(const std::vector<std::span<const VertexId>>& lists,
                          size_t k, std::vector<ThresholdMatch>* out,
                          ThresholdAlgorithm algo,
                          const std::vector<BitsetView>* bitsets,
                          VertexCountTable* table) {
  assert(table == nullptr || AllBelow(lists, table->universe()));
  out->clear();
  if (k == 0) k = 1;
  if (lists.empty() || k > lists.size()) return 0;
  if (algo == ThresholdAlgorithm::kAuto) {
    algo = SelectThresholdAlgorithm(lists, k);
  }
  switch (algo) {
    case ThresholdAlgorithm::kScanCount:
      return WithCounts(table, [&](auto& counts) {
        return ScanCount(lists, k, out, counts);
      });
    case ThresholdAlgorithm::kHeapMerge:
      return HeapMerge(lists, k, out);
    case ThresholdAlgorithm::kCandidateVerify:
      return WithCounts(table, [&](auto& counts) {
        return CandidateVerify(lists, k, out, bitsets, counts);
      });
    case ThresholdAlgorithm::kAuto:
      break;
  }
  assert(false && "unreachable");
  return 0;
}

}  // namespace magicrecs
