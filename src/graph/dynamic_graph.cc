#include "graph/dynamic_graph.h"

#include <algorithm>
#include <cassert>

#include "persist/codec.h"
#include "util/str_format.h"

namespace magicrecs {

DynamicInEdgeIndex::DynamicInEdgeIndex(const DynamicGraphOptions& options)
    : options_(options) {
  assert(options_.window > 0);
}

Status DynamicInEdgeIndex::Insert(VertexId src, VertexId dst, Timestamp t) {
  if (src == kInvalidVertex || dst == kInvalidVertex) {
    return Status::InvalidArgument("edge uses the reserved invalid vertex id");
  }
  Log& log = logs_[dst];
  if (log.size() > 0 && t < log.entries.back().created_at) {
    if (options_.strict_time_order) {
      return Status::FailedPrecondition(
          StrFormat("timestamp %lld precedes the newest in-edge of vertex %u",
                    static_cast<long long>(t), dst));
    }
    // Tolerant mode: clamp so the log stays time-sorted; out-of-order
    // deliveries from a real message queue are expected to be rare and
    // barely late.
    t = log.entries.back().created_at;
  }
  log.entries.push_back(TimestampedInEdge{src, t});
  ++stats_.inserted;
  ++stats_.current_edges;
  PruneLog(&log, t);
  if (options_.max_in_edges_per_vertex > 0 &&
      log.size() > options_.max_in_edges_per_vertex) {
    const size_t excess = log.size() - options_.max_in_edges_per_vertex;
    log.begin += excess;
    stats_.evicted += excess;
    stats_.current_edges -= excess;
  }
  return Status::OK();
}

void DynamicInEdgeIndex::PruneLog(Log* log, Timestamp now) {
  const Timestamp cutoff = now - options_.window;
  size_t begin = log->begin;
  const size_t end = log->entries.size();
  while (begin < end && log->entries[begin].created_at <= cutoff) {
    ++begin;
  }
  const size_t dropped = begin - log->begin;
  if (dropped > 0) {
    stats_.pruned += dropped;
    stats_.current_edges -= dropped;
    log->begin = begin;
  }
  // Compact when more than half the backing array is dead space.
  if (log->begin > 0 && log->begin * 2 >= log->entries.size()) {
    log->entries.erase(log->entries.begin(),
                       log->entries.begin() +
                           static_cast<std::ptrdiff_t>(log->begin));
    log->begin = 0;
  }
}

size_t DynamicInEdgeIndex::GetRecentInEdges(
    VertexId dst, Timestamp now, std::vector<TimestampedInEdge>* out) const {
  out->clear();
  const auto it = logs_.find(dst);
  if (it == logs_.end()) return 0;
  const Log& log = it->second;
  const Timestamp cutoff = now - options_.window;
  for (size_t i = log.begin; i < log.entries.size(); ++i) {
    const TimestampedInEdge& e = log.entries[i];
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

size_t DynamicInEdgeIndex::CountRecentInEdges(VertexId dst,
                                              Timestamp now) const {
  // Distinct-source count requires the same dedup as materialization; the
  // per-vertex logs are window-bounded so this stays cheap.
  std::vector<TimestampedInEdge> scratch;
  return GetRecentInEdges(dst, now, &scratch);
}

void DynamicInEdgeIndex::PruneAll(Timestamp now) {
  for (auto it = logs_.begin(); it != logs_.end();) {
    PruneLog(&it->second, now);
    if (it->second.size() == 0) {
      it = logs_.erase(it);
    } else {
      ++it;
    }
  }
}

void DynamicInEdgeIndex::Clear() {
  logs_.clear();
  stats_ = DynamicGraphStats{};
}

void DynamicInEdgeIndex::EncodeTo(std::string* out) const {
  std::vector<VertexId> destinations;
  destinations.reserve(logs_.size());
  for (const auto& [dst, log] : logs_) {
    if (log.size() > 0) destinations.push_back(dst);
  }
  std::sort(destinations.begin(), destinations.end());

  persist::PutU64(out, destinations.size());
  for (const VertexId dst : destinations) {
    const Log& log = logs_.at(dst);
    persist::PutU32(out, dst);
    persist::PutU64(out, log.size());
    for (size_t i = log.begin; i < log.entries.size(); ++i) {
      persist::PutU32(out, log.entries[i].src);
      persist::PutI64(out, log.entries[i].created_at);
    }
  }
}

Status DynamicInEdgeIndex::DecodeFrom(const uint8_t* data, size_t size) {
  persist::ByteReader reader(data, size);
  uint64_t num_logs = 0;
  if (!reader.GetU64(&num_logs)) {
    return Status::Corruption("dynamic index encoding truncated");
  }
  std::unordered_map<VertexId, Log> logs;
  uint64_t total_edges = 0;
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
    constexpr size_t kEntryBytes = sizeof(uint32_t) + sizeof(int64_t);
    if (count > reader.remaining() / kEntryBytes) {
      return Status::Corruption("dynamic index entries truncated");
    }
    Log log;
    log.entries.reserve(count);
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
      log.entries.push_back(e);
    }
    total_edges += count;
    if (!logs.emplace(dst, std::move(log)).second) {
      return Status::Corruption("dynamic index encodes a destination twice");
    }
  }
  logs_ = std::move(logs);
  stats_ = DynamicGraphStats{};
  stats_.inserted = total_edges;
  stats_.current_edges = total_edges;
  return Status::OK();
}

DynamicGraphStats DynamicInEdgeIndex::stats() const {
  stats_.tracked_vertices = 0;
  for (const auto& [dst, log] : logs_) {
    if (log.size() > 0) ++stats_.tracked_vertices;
  }
  return stats_;
}

size_t DynamicInEdgeIndex::MemoryUsage() const {
  // Approximation: capacity of each log plus per-bucket hash map overhead
  // (node pointer + key/value + bucket array slot for libstdc++'s
  // unordered_map).
  constexpr size_t kPerNodeOverhead = 56;
  size_t total = logs_.bucket_count() * sizeof(void*);
  for (const auto& [dst, log] : logs_) {
    total += kPerNodeOverhead + log.entries.capacity() * sizeof(TimestampedInEdge);
  }
  return total;
}

}  // namespace magicrecs
