#include "graph/dynamic_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "persist/codec.h"
#include "util/str_format.h"

namespace magicrecs {

DynamicInEdgeIndex::DynamicInEdgeIndex(const DynamicGraphOptions& options)
    : options_(options) {
  assert(options_.window > 0);
  Rehash(kMinCapacity);
}

Status DynamicInEdgeIndex::Insert(VertexId src, VertexId dst, Timestamp t) {
  if (src == kInvalidVertex || dst == kInvalidVertex) {
    return Status::InvalidArgument("edge uses the reserved invalid vertex id");
  }
  // No log is newer than the watermark, so only an edge older than it can
  // precede its destination's newest: strict mode refuses it before
  // anything changes.
  if (options_.strict_time_order && t < watermark_) {
    const Slot& slot = slots_[Probe(dst)];
    if (slot.dst == dst && t < slot.newest) {
      return Status::FailedPrecondition(
          StrFormat("timestamp %lld precedes the newest in-edge of vertex %u",
                    static_cast<long long>(t), dst));
    }
  }
  ++stats_.inserted;
  // The clamp below never raises t past the watermark, so the watermark,
  // and what it expires, do not depend on it: expire first, then one probe
  // serves both the clamp and the claim.
  watermark_ = std::max(watermark_, t);
  const Timestamp cutoff = Cutoff(watermark_);
  Expire(cutoff);
  size_t i = Probe(dst);
  if (slots_[i].dst == dst) {
    // Tolerant mode: clamp so every run stays time-sorted; out-of-order
    // deliveries from a real message queue are expected to be rare and
    // barely late. A live log's newest is inside the window, so t is too.
    t = std::max(t, slots_[i].newest);
  } else if (t <= cutoff) {
    // Only a late edge to a destination without a live log gets here.
    ++stats_.pruned;
    last_log_size_ = 0;
    return Status::OK();
  } else {
    i = Claim(i, dst);
  }
  Slot& log = slots_[i];
  // The back of src's run: after every earlier insert of src.
  log.entries.insert(
      std::ranges::upper_bound(log.entries, src, {}, &Entry::src),
      Entry{src, log.next_seq++, t});
  log.newest = t;
  ++stats_.current_edges;
  PushExpiry(Expiry{t, dst, src});
  while (options_.max_in_edges_per_vertex > 0 &&
         log.entries.size() > options_.max_in_edges_per_vertex) {
    // The cap evicts the oldest insertion.
    log.entries.erase(std::ranges::min_element(log.entries, InsertedBefore));
    ++stats_.evicted;
    --stats_.current_edges;
  }
  last_slot_ = i;
  last_log_size_ = log.entries.size();
  return Status::OK();
}

Timestamp DynamicInEdgeIndex::Cutoff(Timestamp now) const {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  return now < kMin + options_.window ? kMin : now - options_.window;
}

size_t DynamicInEdgeIndex::Home(VertexId dst) const {
  return static_cast<size_t>((uint64_t{dst} * 0x9E3779B97F4A7C15ull) >>
                             shift_);
}

size_t DynamicInEdgeIndex::Probe(VertexId dst) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(dst);
  while (slots_[i].dst != dst && slots_[i].dst != kInvalidVertex) {
    i = (i + 1) & mask;
  }
  return i;
}

size_t DynamicInEdgeIndex::Claim(size_t i, VertexId dst) {
  if (2 * (stats_.tracked_vertices + 1) > slots_.size()) {
    Rehash(2 * slots_.size());
    i = Probe(dst);
  }
  ++stats_.tracked_vertices;
  slots_[i].dst = dst;
  if (!pool_.empty()) {
    slots_[i].entries = std::move(pool_.back());
    pool_.pop_back();
  }
  return i;
}

void DynamicInEdgeIndex::EraseSlot(size_t hole) {
  std::vector<Entry> buffer = std::move(slots_[hole].entries);
  const size_t mask = slots_.size() - 1;
  for (size_t i = (hole + 1) & mask; slots_[i].dst != kInvalidVertex;
       i = (i + 1) & mask) {
    // Slot i may fill the hole when the hole lies on its probe path, i.e.
    // no nearer to i than i's home is.
    if (((i - Home(slots_[i].dst)) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = std::move(slots_[i]);
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --stats_.tracked_vertices;
  // The pool keeps at most one small buffer per kLogsPerPooledBuffer live
  // logs, so it shrinks with the table.
  if (buffer.capacity() <= kMaxPooledEntries &&
      kLogsPerPooledBuffer * (pool_.size() + 1) <= stats_.tracked_vertices) {
    pool_.push_back(std::move(buffer));
  }
  while (kLogsPerPooledBuffer * pool_.size() > stats_.tracked_vertices) {
    pool_.pop_back();
  }
  if (slots_.size() > kMinCapacity &&
      8 * stats_.tracked_vertices < slots_.size()) {
    Rehash(slots_.size() / 2);
    pool_.shrink_to_fit();
  }
}

void DynamicInEdgeIndex::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(capacity);
  shift_ = 64 - std::countr_zero(capacity);
  last_slot_ = 0;
  for (Slot& slot : old) {
    if (slot.dst != kInvalidVertex) slots_[Probe(slot.dst)] = std::move(slot);
  }
}

void DynamicInEdgeIndex::Expire(Timestamp cutoff) {
  while (expiry_size_ > 0 && ExpiryAt(0).t <= cutoff) {
    const Expiry e = ExpiryAt(0);
    expiry_head_ = (expiry_head_ + 1) & (expiry_.size() - 1);
    --expiry_size_;
    const size_t i = Probe(e.dst);
    if (slots_[i].dst != e.dst) continue;  // its log already emptied
    PruneRun(&slots_[i], e.src, cutoff);
    if (slots_[i].entries.empty()) EraseSlot(i);
  }
  size_t capacity = expiry_.size();
  while (capacity > kMinCapacity && 8 * expiry_size_ < capacity) capacity /= 2;
  if (capacity < expiry_.size()) ResizeExpiry(capacity);
}

void DynamicInEdgeIndex::PruneRun(Slot* slot, VertexId src, Timestamp cutoff) {
  const auto first =
      std::ranges::lower_bound(slot->entries, src, {}, &Entry::src);
  auto last = first;
  while (last != slot->entries.end() && last->src == src &&
         last->created_at <= cutoff) {
    ++last;
  }
  const auto dropped = static_cast<uint64_t>(last - first);
  stats_.pruned += dropped;
  stats_.current_edges -= dropped;
  slot->entries.erase(first, last);
}

void DynamicInEdgeIndex::PushExpiry(Expiry e) {
  if (expiry_size_ == expiry_.size()) {
    ResizeExpiry(std::max(kMinCapacity, 2 * expiry_.size()));
  }
  size_t i = expiry_size_++;
  for (; i > 0 && ExpiryAt(i - 1).t > e.t; --i) ExpiryAt(i) = ExpiryAt(i - 1);
  ExpiryAt(i) = e;
}

void DynamicInEdgeIndex::ResizeExpiry(size_t capacity) {
  std::vector<Expiry> ring(capacity);
  for (size_t i = 0; i < expiry_size_; ++i) ring[i] = ExpiryAt(i);
  expiry_ = std::move(ring);
  expiry_head_ = 0;
}

size_t DynamicInEdgeIndex::GetRecentInEdges(
    VertexId dst, Timestamp now, std::vector<TimestampedInEdge>* out) const {
  out->clear();
  // The slot the last insert wrote needs no probe.
  const Slot& slot = slots_[last_slot_].dst == dst ? slots_[last_slot_]
                                                   : slots_[Probe(dst)];
  if (slot.dst != dst) return 0;
  const Timestamp cutoff = Cutoff(now);
  // Runs come in source order and each is time-sorted, so the last entry of
  // a run inside (cutoff, now] is that source's most recent.
  for (auto it = slot.entries.begin(); it != slot.entries.end();) {
    const VertexId src = it->src;
    Timestamp latest = cutoff;  // none yet
    for (; it != slot.entries.end() && it->src == src; ++it) {
      if (it->created_at > cutoff && it->created_at <= now) {
        latest = it->created_at;
      }
    }
    if (latest > cutoff) out->push_back(TimestampedInEdge{src, latest});
  }
  return out->size();
}

void DynamicInEdgeIndex::Clear() { *this = DynamicInEdgeIndex(options_); }

void DynamicInEdgeIndex::EncodeTo(std::string* out) const {
  std::vector<const Slot*> logs;
  logs.reserve(stats_.tracked_vertices);
  for (const Slot& slot : slots_) {
    if (slot.dst != kInvalidVertex) logs.push_back(&slot);
  }
  std::sort(logs.begin(), logs.end(),
            [](const Slot* a, const Slot* b) { return a->dst < b->dst; });

  persist::PutU64(out, logs.size());
  std::vector<Entry> inserted;
  for (const Slot* slot : logs) {
    // Oldest first, as the log was inserted.
    inserted = slot->entries;
    std::ranges::sort(inserted, InsertedBefore);
    persist::PutU32(out, slot->dst);
    persist::PutU64(out, inserted.size());
    for (const Entry& e : inserted) {
      persist::PutU32(out, e.src);
      persist::PutI64(out, e.created_at);
    }
  }
}

Status DynamicInEdgeIndex::DecodeFrom(const uint8_t* data, size_t size) {
  persist::ByteReader reader(data, size);
  uint64_t num_logs = 0;
  if (!reader.GetU64(&num_logs)) {
    return Status::Corruption("dynamic index encoding truncated");
  }
  DynamicInEdgeIndex decoded(options_);
  std::vector<Expiry> expiries;
  for (uint64_t i = 0; i < num_logs; ++i) {
    uint32_t dst = 0;
    uint64_t count = 0;
    if (!reader.GetU32(&dst) || !reader.GetU64(&count)) {
      return Status::Corruption("dynamic index log header truncated");
    }
    // Insert refuses the reserved id, so an encoding holding it is corrupt.
    if (dst == kInvalidVertex) {
      return Status::Corruption("dynamic index log for the invalid vertex id");
    }
    // EncodeTo writes only live logs, and the table holds no empty one.
    if (count == 0) return Status::Corruption("dynamic index log is empty");
    constexpr size_t kEntryBytes = sizeof(uint32_t) + sizeof(int64_t);
    if (count > reader.remaining() / kEntryBytes) {
      return Status::Corruption("dynamic index entries truncated");
    }
    const size_t at = decoded.Probe(dst);
    if (decoded.slots_[at].dst == dst) {
      return Status::Corruption("dynamic index encodes a destination twice");
    }
    Slot& slot = decoded.slots_[decoded.Claim(at, dst)];
    slot.entries.reserve(count);
    Timestamp prev = std::numeric_limits<Timestamp>::min();
    for (uint64_t j = 0; j < count; ++j) {
      // The log is written oldest first: file order is insertion order.
      Entry e{kInvalidVertex, slot.next_seq++, 0};
      reader.GetU32(&e.src);
      reader.GetI64(&e.created_at);
      if (e.src == kInvalidVertex) {
        return Status::Corruption(
            "dynamic index edge from the invalid vertex id");
      }
      if (e.created_at < prev) {
        return Status::Corruption("dynamic index log is not time-sorted");
      }
      prev = e.created_at;
      slot.entries.push_back(e);
      expiries.push_back(Expiry{e.created_at, dst, e.src});
    }
    std::ranges::stable_sort(slot.entries, {}, &Entry::src);
    slot.newest = prev;
    decoded.watermark_ = std::max(decoded.watermark_, prev);
  }
  // Each log is time-sorted; the queue must be across logs too.
  std::sort(expiries.begin(), expiries.end(),
            [](const Expiry& a, const Expiry& b) { return a.t < b.t; });
  decoded.ResizeExpiry(std::bit_ceil(std::max(kMinCapacity, expiries.size())));
  std::copy(expiries.begin(), expiries.end(), decoded.expiry_.begin());
  decoded.expiry_size_ = expiries.size();
  decoded.stats_.inserted = expiries.size();
  decoded.stats_.current_edges = expiries.size();
  *this = std::move(decoded);
  return Status::OK();
}

size_t DynamicInEdgeIndex::MemoryUsage() const {
  size_t total = slots_.capacity() * sizeof(Slot) +
                 expiry_.capacity() * sizeof(Expiry);
  for (const Slot& slot : slots_) {
    total += slot.entries.capacity() * sizeof(Entry);
  }
  for (const std::vector<Entry>& buffer : pool_) {
    total += buffer.capacity() * sizeof(Entry);
  }
  return total + pool_.capacity() * sizeof(std::vector<Entry>);
}

}  // namespace magicrecs
