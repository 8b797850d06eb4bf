#include "intersect/threshold.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
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
  std::vector<size_t> order;
  std::vector<ThresholdMatch> candidates;
  std::vector<size_t> cursor;
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
  const size_t n = lists.size();
  Scratch& scratch = ThreadScratch();
  // Order list indices by size: the n-k+1 smallest seed the candidate set,
  // the k-1 largest are only probed.
  std::vector<size_t>& order = scratch.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lists[a].size() < lists[b].size();
  });
  const size_t num_seed = n - k + 1;

  // Count seed occurrences per candidate. The savings come from never
  // scanning the large verify lists.
  size_t seed_total = 0;
  for (size_t s = 0; s < num_seed; ++s) seed_total += lists[order[s]].size();
  scratch.counts.Begin(seed_total);
  for (size_t s = 0; s < num_seed; ++s) {
    for (const VertexId v : lists[order[s]]) scratch.counts.Add(v);
  }
  std::vector<ThresholdMatch>& candidates = scratch.candidates;
  candidates.clear();
  scratch.counts.ForEach([&](VertexId v, uint32_t c) {
    candidates.push_back(ThresholdMatch{v, c});
  });
  std::sort(candidates.begin(), candidates.end(), IdLess);

  // Verify candidates against each large list. A list with a hub bitmap is
  // one O(1) bit probe; the rest use a galloping cursor with SIMD-finished
  // probes — candidates are sorted, so cursors only move forward.
  const size_t num_verify = n - num_seed;  // == k-1
  std::vector<size_t>& cursor = scratch.cursor;
  cursor.assign(num_verify, 0);
  for (const ThresholdMatch& cand : candidates) {
    uint32_t count = cand.count;
    for (size_t vl = 0; vl < num_verify; ++vl) {
      // Early exit: cannot reach k even if all remaining lists match.
      if (count + (num_verify - vl) < k) break;
      if (count >= k) break;
      const size_t list_index = order[num_seed + vl];
      const BitsetView bits = BitsetFor(bitsets, list_index);
      if (!bits.empty()) {
        if (bits.Test(cand.id)) ++count;
        continue;
      }
      const auto list = lists[list_index];
      size_t& pos = cursor[vl];
      if (pos >= list.size()) continue;
      pos = SimdGallopLowerBound(list, pos, cand.id);
      if (pos < list.size() && list[pos] == cand.id) {
        ++count;
        ++pos;
      }
    }
    if (count >= k) {
      // The qualify loop may have stopped early at `count == k`; recount
      // exactly so every strategy reports identical counts. Matches are
      // sparse, so the extra O(n log) per match is negligible.
      uint32_t exact = 0;
      for (size_t li = 0; li < n; ++li) {
        const BitsetView bits = BitsetFor(bitsets, li);
        if (!bits.empty()) {
          if (bits.Test(cand.id)) ++exact;
          continue;
        }
        const auto& list = lists[li];
        if (std::binary_search(list.begin(), list.end(), cand.id)) ++exact;
      }
      out->push_back(ThresholdMatch{cand.id, exact});
    }
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
  const size_t rest = total - largest;
  // A single dominant list that dwarfs the others (and k >= 2 so it can be
  // relegated to verification) → candidate-verify skips scanning it.
  if (k >= 2 && largest >= 8 * std::max<size_t>(rest, 1) && largest >= 1024) {
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
