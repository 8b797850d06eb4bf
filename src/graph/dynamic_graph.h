// The "D" data structure of the paper: for every destination vertex C, the
// timestamped in-edges B -> C observed on the real-time stream, retained only
// within a freshness window ("memory pressure can be alleviated by pruning
// the D data structure to only retain the most recent edges", §2).
//
// Retention follows the watermark: the newest (clamped) time D has seen.
// Every Insert first expires, across all destinations, the edges created at
// or before watermark - window, so D holds exactly the edges of the window
// and nothing of the destinations that fell out of it. An in-order stream
// sees the same query results as per-destination pruning would give; a late
// event (tolerant mode only) cannot bring back what the watermark already
// expired, and an edge that arrives already expired is counted as pruned
// and not stored.
//
// Layout: a flat open-addressing table keyed by destination (linear
// probing, multiplicative hashing, backward-shift deletion, so no
// tombstones), each slot holding its log inline, grouped by source: one run
// per source in ascending source id, each run in insertion order. The
// tolerant-mode clamp keeps times non-decreasing within a destination, so
// every run is time-sorted and a window read is one pass that emits, per
// run, its newest entry in the window: deduped and in source order with no
// sort. Each entry carries its slot's insertion counter: the per-vertex cap
// evicts the oldest insertion, and the encoding writes a log in insertion
// order, the bytes a time-ordered log gives. An expiry queue of (time,
// destination, source), one entry per stored edge, kept in time order,
// names the run whose front each expired edge is at; a log that empties
// frees its slot and gives its buffer to a pool, which the next new
// destination takes from (at most one buffer of up to 16 entries per eight
// live logs). All three grow and shrink with the window. An insert expires
// first and then probes once for both the clamp and the write (the clamp
// never raises a time past the watermark); it keeps the slot it wrote, so a
// read of that destination right after needs no probe.

#ifndef MAGICRECS_GRAPH_DYNAMIC_GRAPH_H_
#define MAGICRECS_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/edge.h"
#include "util/status.h"
#include "util/types.h"

namespace magicrecs {

/// Configuration for DynamicInEdgeIndex.
struct DynamicGraphOptions {
  /// Freshness window tau: in-edges created at or before
  /// `watermark - window` are pruned, and a query at `now` returns only
  /// edges created in (now - window, now]. Must be > 0.
  Duration window = Minutes(10);

  /// Upper bound on retained in-edges per destination vertex; oldest edges
  /// are evicted first. 0 means unlimited. Bounds worst-case memory when a
  /// celebrity account gains followers faster than the window expires them.
  size_t max_in_edges_per_vertex = 0;

  /// If true, Insert() rejects timestamps that go backwards for the same
  /// destination (stream contract violation) with FailedPrecondition;
  /// otherwise they are accepted and clamped to that destination's newest
  /// in-edge.
  bool strict_time_order = false;
};

/// Running totals maintained by the index.
struct DynamicGraphStats {
  uint64_t inserted = 0;          ///< total Insert() calls accepted
  uint64_t pruned = 0;            ///< edges dropped by window expiry
  uint64_t evicted = 0;           ///< edges dropped by the per-vertex cap
  uint64_t current_edges = 0;     ///< edges currently retained
  uint64_t tracked_vertices = 0;  ///< destinations with a non-empty log
};

/// The dynamic in-edge index. Thread-compatible: the cluster layer keeps
/// one instance per process, which every hosted partition reads.
class DynamicInEdgeIndex {
 public:
  explicit DynamicInEdgeIndex(const DynamicGraphOptions& options = {});

  /// Records edge src -> dst created at `t`, after expiring every edge the
  /// new watermark puts out of the window.
  Status Insert(VertexId src, VertexId dst, Timestamp t);

  /// Entries in the log of the last accepted Insert's destination right
  /// after it (0 when the edge arrived already expired): a bound on the
  /// sources a read of that destination can return.
  size_t last_log_size() const { return last_log_size_; }

  /// Appends the distinct sources with an edge to `dst` created in
  /// (now - window, now] into `*out` (cleared first), most-recent timestamp
  /// kept per source, sorted by source id. Returns the number appended.
  size_t GetRecentInEdges(VertexId dst, Timestamp now,
                          std::vector<TimestampedInEdge>* out) const;

  const DynamicGraphOptions& options() const { return options_; }
  const DynamicGraphStats& stats() const { return stats_; }

  /// Bytes held: the table, the expiry queue, every log's buffer and the
  /// pooled buffers.
  size_t MemoryUsage() const;

  /// Drops every retained edge (recovery resets state before restoring it
  /// from a snapshot + WAL replay). Lifetime counters are zeroed too.
  void Clear();

  /// Appends a deterministic binary encoding of the retained edges to *out
  /// (destinations in ascending order, so identical state yields identical
  /// bytes regardless of table layout).
  void EncodeTo(std::string* out) const;

  /// Replaces this index's contents with edges decoded from EncodeTo()
  /// bytes and rebuilds the expiry queue; the watermark becomes the newest
  /// decoded time. Options are unchanged (they come from construction, not
  /// the snapshot). Lifetime counters restart from the decoded edge count.
  /// Corruption, leaving the index unchanged, when the bytes are truncated,
  /// a log is empty or not time-sorted, a destination repeats, or an edge
  /// uses kInvalidVertex (which Insert refuses).
  Status DecodeFrom(const uint8_t* data, size_t size);

 private:
  /// A stored edge. `seq` is its slot's insertion counter at insert time;
  /// it fills the padding, so an entry is as small as a TimestampedInEdge.
  struct Entry {
    VertexId src;
    uint32_t seq;
    Timestamp created_at;
  };
  static_assert(sizeof(Entry) == sizeof(TimestampedInEdge));

  /// Insertion order: the smaller seq modulo 2^32 (a log spans far fewer
  /// than 2^31 inserts).
  static bool InsertedBefore(const Entry& a, const Entry& b) {
    return static_cast<int32_t>(a.seq - b.seq) < 0;
  }

  /// One destination's log, grouped by source (ascending id), each source's
  /// run in insertion order. dst == kInvalidVertex marks an empty slot.
  struct Slot {
    VertexId dst = kInvalidVertex;
    /// The seq the next insert takes; wraps, compared modulo 2^32.
    uint32_t next_seq = 0;
    /// Time of the newest (last inserted) entry: the tolerant-mode clamp.
    Timestamp newest = 0;
    std::vector<Entry> entries;
  };

  /// An expiry queue entry: at watermark `t + window`, `src`'s run in
  /// `dst`'s log holds an expired edge (unless the cap evicted it first).
  struct Expiry {
    Timestamp t;
    VertexId dst;
    VertexId src;
  };

  static constexpr size_t kMinCapacity = 16;
  /// The buffer pool keeps at most one buffer per this many live logs, and
  /// none of a capacity above kMaxPooledEntries.
  static constexpr size_t kLogsPerPooledBuffer = 8;
  static constexpr size_t kMaxPooledEntries = 16;

  /// `now - window`, saturating at the smallest timestamp.
  Timestamp Cutoff(Timestamp now) const;

  size_t Home(VertexId dst) const;
  /// The slot holding `dst`, or the empty slot where it would go.
  size_t Probe(VertexId dst) const;
  /// Claims empty slot `i`, where Probe(dst) ended, for `dst` with a pooled
  /// buffer if one is left; grows the table if needed. Returns the slot.
  size_t Claim(size_t i, VertexId dst);
  /// Empties slot `i`, pooling its buffer, shifting later probe-chain
  /// entries back into the hole, and shrinks the table once it is mostly
  /// empty.
  void EraseSlot(size_t i);
  void Rehash(size_t capacity);

  /// Pops the queue's entries at or before `cutoff`, front-trims the runs
  /// they name and erases the logs that empty.
  void Expire(Timestamp cutoff);
  /// Trims the entries of `src`'s run in `slot` created at or before
  /// `cutoff`; updates stats.
  void PruneRun(Slot* slot, VertexId src, Timestamp cutoff);
  /// Enqueues at the position that keeps the queue time-sorted: the back,
  /// unless the edge is late.
  void PushExpiry(Expiry e);
  Expiry& ExpiryAt(size_t i) {
    return expiry_[(expiry_head_ + i) & (expiry_.size() - 1)];
  }
  void ResizeExpiry(size_t capacity);

  DynamicGraphOptions options_;

  /// Power-of-two capacity, at most half full.
  std::vector<Slot> slots_;
  int shift_ = 64;
  /// Emptied logs' buffers, for the next destinations to claim a slot.
  std::vector<std::vector<Entry>> pool_;
  /// The slot the last accepted Insert wrote: a hint, read only after its
  /// dst is checked, and reset by Rehash so it stays in range.
  size_t last_slot_ = 0;
  size_t last_log_size_ = 0;

  /// Ring buffer of power-of-two capacity (or none yet).
  std::vector<Expiry> expiry_;
  size_t expiry_head_ = 0;
  size_t expiry_size_ = 0;

  Timestamp watermark_ = std::numeric_limits<Timestamp>::min();
  /// tracked_vertices is the table's live-slot count.
  DynamicGraphStats stats_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_GRAPH_DYNAMIC_GRAPH_H_
