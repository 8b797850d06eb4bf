#include "graph/dynamic_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "persist/codec.h"
#include "util/str_format.h"

namespace magicrecs {

namespace {

/// Drops the dead front of `entries` once it is at least half the buffer,
/// so trimming stays O(1) amortized without pinning dead space.
void Compact(std::vector<TimestampedInEdge>* entries, size_t* begin) {
  if (*begin > 0 && *begin * 2 >= entries->size()) {
    entries->erase(entries->begin(),
                   entries->begin() + static_cast<std::ptrdiff_t>(*begin));
    *begin = 0;
  }
}

}  // namespace

DynamicInEdgeIndex::DynamicInEdgeIndex(const DynamicGraphOptions& options)
    : options_(options) {
  assert(options_.window > 0);
  Rehash(kMinCapacity);
}

Status DynamicInEdgeIndex::Insert(VertexId src, VertexId dst, Timestamp t) {
  if (src == kInvalidVertex || dst == kInvalidVertex) {
    return Status::InvalidArgument("edge uses the reserved invalid vertex id");
  }
  const Slot& slot = slots_[Probe(dst)];
  if (slot.dst == dst && t < slot.entries.back().created_at) {
    if (options_.strict_time_order) {
      return Status::FailedPrecondition(
          StrFormat("timestamp %lld precedes the newest in-edge of vertex %u",
                    static_cast<long long>(t), dst));
    }
    // Tolerant mode: clamp so the log stays time-sorted; out-of-order
    // deliveries from a real message queue are expected to be rare and
    // barely late.
    t = slot.entries.back().created_at;
  }
  ++stats_.inserted;
  watermark_ = std::max(watermark_, t);
  const Timestamp cutoff = Cutoff(watermark_);
  Expire(cutoff);
  if (t <= cutoff) {
    // Only a late edge to a destination without a live log gets here.
    ++stats_.pruned;
    return Status::OK();
  }
  // Expire may have moved or freed dst's slot: look it up again.
  Slot& log = FindOrAdd(dst);
  log.entries.push_back(TimestampedInEdge{src, t});
  ++stats_.current_edges;
  PushExpiry(Expiry{t, dst});
  if (options_.max_in_edges_per_vertex > 0 &&
      log.size() > options_.max_in_edges_per_vertex) {
    const size_t excess = log.size() - options_.max_in_edges_per_vertex;
    log.begin += excess;
    stats_.evicted += excess;
    stats_.current_edges -= excess;
    Compact(&log.entries, &log.begin);
  }
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

DynamicInEdgeIndex::Slot& DynamicInEdgeIndex::FindOrAdd(VertexId dst) {
  size_t i = Probe(dst);
  if (slots_[i].dst == dst) return slots_[i];
  if (2 * (stats_.tracked_vertices + 1) > slots_.size()) {
    Rehash(2 * slots_.size());
    i = Probe(dst);
  }
  ++stats_.tracked_vertices;
  slots_[i].dst = dst;
  return slots_[i];
}

void DynamicInEdgeIndex::EraseSlot(size_t hole) {
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
  if (slots_.size() > kMinCapacity &&
      8 * stats_.tracked_vertices < slots_.size()) {
    Rehash(slots_.size() / 2);
  }
}

void DynamicInEdgeIndex::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(capacity);
  shift_ = 64 - std::countr_zero(capacity);
  for (Slot& slot : old) {
    if (slot.dst != kInvalidVertex) slots_[Probe(slot.dst)] = std::move(slot);
  }
}

void DynamicInEdgeIndex::Expire(Timestamp cutoff) {
  while (expiry_size_ > 0 && ExpiryAt(0).t <= cutoff) {
    const VertexId dst = ExpiryAt(0).dst;
    expiry_head_ = (expiry_head_ + 1) & (expiry_.size() - 1);
    --expiry_size_;
    const size_t i = Probe(dst);
    if (slots_[i].dst != dst) continue;  // its log already emptied
    PruneLog(&slots_[i], cutoff);
    if (slots_[i].size() == 0) EraseSlot(i);
  }
  size_t capacity = expiry_.size();
  while (capacity > kMinCapacity && 8 * expiry_size_ < capacity) capacity /= 2;
  if (capacity < expiry_.size()) ResizeExpiry(capacity);
}

void DynamicInEdgeIndex::PruneLog(Slot* slot, Timestamp cutoff) {
  size_t begin = slot->begin;
  const size_t end = slot->entries.size();
  while (begin < end && slot->entries[begin].created_at <= cutoff) ++begin;
  const size_t dropped = begin - slot->begin;
  stats_.pruned += dropped;
  stats_.current_edges -= dropped;
  slot->begin = begin;
  Compact(&slot->entries, &slot->begin);
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
  const Slot& slot = slots_[Probe(dst)];
  if (slot.dst != dst) return 0;
  const Timestamp cutoff = Cutoff(now);
  for (size_t i = slot.begin; i < slot.entries.size(); ++i) {
    const TimestampedInEdge& e = slot.entries[i];
    if (e.created_at > cutoff && e.created_at <= now) {
      out->push_back(e);
    }
  }
  // Deduplicate sources, keeping the most recent timestamp: after sorting by
  // (source, time) the last entry per source is the freshest. Entries equal
  // in both fields are interchangeable, so an unstable in-place sort gives
  // the same result as a stable one without its temporary buffer.
  std::sort(out->begin(), out->end(),
            [](const TimestampedInEdge& a, const TimestampedInEdge& b) {
              return a.src != b.src ? a.src < b.src
                                    : a.created_at < b.created_at;
            });
  auto write = out->begin();
  for (auto read = out->begin(); read != out->end();) {
    auto next = read + 1;
    while (next != out->end() && next->src == read->src) {
      read = next;
      ++next;
    }
    *write++ = *read;
    read = next;
  }
  out->erase(write, out->end());
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
  for (const Slot* slot : logs) {
    persist::PutU32(out, slot->dst);
    persist::PutU64(out, slot->size());
    for (size_t i = slot->begin; i < slot->entries.size(); ++i) {
      persist::PutU32(out, slot->entries[i].src);
      persist::PutI64(out, slot->entries[i].created_at);
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
    Slot& slot = decoded.FindOrAdd(dst);
    if (!slot.entries.empty()) {
      return Status::Corruption("dynamic index encodes a destination twice");
    }
    slot.entries.reserve(count);
    Timestamp prev = std::numeric_limits<Timestamp>::min();
    for (uint64_t j = 0; j < count; ++j) {
      TimestampedInEdge e;
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
      expiries.push_back(Expiry{e.created_at, dst});
    }
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
    total += slot.entries.capacity() * sizeof(TimestampedInEdge);
  }
  return total;
}

}  // namespace magicrecs
