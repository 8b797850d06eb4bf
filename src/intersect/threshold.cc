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

/// Open-addressing id -> occurrence-count table, reused by every call on a
/// thread. Linear probing, multiplicative (Fibonacci) hashing, power-of-two
/// sizes. kInvalidVertex marks an empty slot, so a real occurrence of that
/// id is counted on the side. Every slot a call fills is listed in
/// touched_: the caller reads its counts from that list, and the next
/// Begin() empties exactly those slots — nothing ever scans or clears the
/// whole table.
class CountTable {
 public:
  /// Starts a count over `total` list elements: empties what the previous
  /// count filled and sizes this count's slot range to >= 2 * total. The
  /// backing storage only grows.
  void Begin(size_t total) {
    for (const size_t slot : touched_) slots_[slot] = Slot{};
    touched_.clear();
    invalid_count_ = 0;
    const size_t capacity =
        std::bit_ceil(std::max<size_t>(2 * total, kMinSlots));
    if (capacity > slots_.size()) slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
  }

  void Add(VertexId v) {
    if (v == kInvalidVertex) {
      ++invalid_count_;
      return;
    }
    size_t i = static_cast<size_t>((uint64_t{v} * 0x9E3779B97F4A7C15ull) >>
                                   shift_);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.id == v) {
        ++slot.count;
        return;
      }
      if (slot.id == kInvalidVertex) {
        touched_.push_back(i);  // first, so a throw leaves no unlisted slot
        slot = Slot{v, 1};
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Calls fn(id, count) for every distinct id counted since Begin(), in
  /// no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const size_t slot : touched_) fn(slots_[slot].id, slots_[slot].count);
    if (invalid_count_ > 0) fn(kInvalidVertex, invalid_count_);
  }

 private:
  struct Slot {
    VertexId id = kInvalidVertex;
    uint32_t count = 0;
  };
  static constexpr size_t kMinSlots = 16;

  std::vector<Slot> slots_;
  std::vector<size_t> touched_;
  uint32_t invalid_count_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

/// Per-thread working memory of ScanCount and CandidateVerify; once warm,
/// neither allocates.
struct Scratch {
  CountTable counts;
  std::vector<ThresholdMatch> candidates;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

bool IdLess(const ThresholdMatch& a, const ThresholdMatch& b) {
  return a.id < b.id;
}

size_t ScanCount(const std::vector<std::span<const VertexId>>& lists, size_t k,
                 std::vector<ThresholdMatch>* out) {
  CountTable& counts = ThreadScratch().counts;
  size_t total = 0;
  for (const auto& list : lists) total += list.size();
  counts.Begin(total);
  for (const auto& list : lists) {
    for (const VertexId v : list) counts.Add(v);
  }
  counts.ForEach([&](VertexId v, uint32_t c) {
    if (c >= k) out->push_back(ThresholdMatch{v, c});
  });
  std::sort(out->begin(), out->end(), IdLess);
  return out->size();
}

size_t HeapMerge(const std::vector<std::span<const VertexId>>& lists, size_t k,
                 std::vector<ThresholdMatch>* out) {
  // Min-heap of (head value, list index). Runs of equal popped values give
  // the occurrence count directly because lists are duplicate-free.
  using Head = std::pair<VertexId, uint32_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
  std::vector<size_t> pos(lists.size(), 0);
  for (uint32_t i = 0; i < lists.size(); ++i) {
    if (!lists[i].empty()) heap.emplace(lists[i][0], i);
  }
  while (!heap.empty()) {
    const VertexId value = heap.top().first;
    uint32_t count = 0;
    while (!heap.empty() && heap.top().first == value) {
      const uint32_t list = heap.top().second;
      heap.pop();
      ++count;
      if (++pos[list] < lists[list].size()) {
        heap.emplace(lists[list][pos[list]], list);
      }
    }
    if (count >= k) out->push_back(ThresholdMatch{value, count});
  }
  return out->size();
}

/// Empty view when no bitsets were provided for this query.
BitsetView BitsetFor(const std::vector<BitsetView>* bitsets, size_t index) {
  if (bitsets == nullptr || index >= bitsets->size()) return {};
  return (*bitsets)[index];
}

size_t CandidateVerify(const std::vector<std::span<const VertexId>>& lists,
                       size_t k, std::vector<ThresholdMatch>* out,
                       const std::vector<BitsetView>* bitsets) {
  // With k < 2 an id may occur only in the largest list, which is never
  // counted here.
  if (k < 2) return ScanCount(lists, k, out);
  Scratch& scratch = ThreadScratch();
  size_t big = 0, total = 0;
  for (size_t i = 0; i < lists.size(); ++i) {
    total += lists[i].size();
    if (lists[i].size() > lists[big].size()) big = i;
  }

  // Count every list but the largest. An id counted k-1 times is a
  // candidate: one hit in the largest list can still lift it to k.
  scratch.counts.Begin(total - lists[big].size());
  for (size_t i = 0; i < lists.size(); ++i) {
    if (i == big) continue;
    for (const VertexId v : lists[i]) scratch.counts.Add(v);
  }
  std::vector<ThresholdMatch>& candidates = scratch.candidates;
  candidates.clear();
  scratch.counts.ForEach([&](VertexId v, uint32_t c) {
    if (c + 1 >= k) candidates.push_back(ThresholdMatch{v, c});
  });
  std::sort(candidates.begin(), candidates.end(), IdLess);

  // Probe each candidate once in the largest list: one bit test of its hub
  // bitmap, or a galloping cursor that only moves forward because the
  // candidates are sorted. The probe completes each count exactly.
  const auto list = lists[big];
  const BitsetView bits = BitsetFor(bitsets, big);
  size_t pos = 0;
  for (ThresholdMatch cand : candidates) {
    if (!bits.empty()) {
      if (bits.Test(cand.id)) ++cand.count;
    } else if (pos < list.size()) {
      pos = SimdGallopLowerBound(list, pos, cand.id);
      if (pos < list.size() && list[pos] == cand.id) {
        ++cand.count;
        ++pos;
      }
    }
    if (cand.count >= k) out->push_back(cand);
  }
  return out->size();
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
                          const std::vector<BitsetView>* bitsets) {
  out->clear();
  if (k == 0) k = 1;
  if (lists.empty() || k > lists.size()) return 0;
  if (algo == ThresholdAlgorithm::kAuto) {
    algo = SelectThresholdAlgorithm(lists, k);
  }
  switch (algo) {
    case ThresholdAlgorithm::kScanCount:
      return ScanCount(lists, k, out);
    case ThresholdAlgorithm::kHeapMerge:
      return HeapMerge(lists, k, out);
    case ThresholdAlgorithm::kCandidateVerify:
      return CandidateVerify(lists, k, out, bitsets);
    case ThresholdAlgorithm::kAuto:
      break;
  }
  assert(false && "unreachable");
  return 0;
}

}  // namespace magicrecs
