// The "D" data structure of the paper: for every destination vertex C, the
// timestamped in-edges B -> C observed on the real-time stream, retained only
// within a freshness window ("memory pressure can be alleviated by pruning
// the D data structure to only retain the most recent edges", §2).
//
// Layout: hash map C -> append-only log of (B, created_at). Events arrive in
// non-decreasing time order per the stream contract, so each per-vertex log
// is time-sorted and pruning is a front-trim. A lazily-compacted offset
// avoids O(n) erase-from-front.

#ifndef MAGICRECS_GRAPH_DYNAMIC_GRAPH_H_
#define MAGICRECS_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/edge.h"
#include "util/status.h"
#include "util/types.h"

namespace magicrecs {

/// Configuration for DynamicInEdgeIndex.
struct DynamicGraphOptions {
  /// Freshness window tau: in-edges older than `now - window` are pruned and
  /// never returned. Must be > 0.
  Duration window = Minutes(10);

  /// Upper bound on retained in-edges per destination vertex; oldest edges
  /// are evicted first. 0 means unlimited. Bounds worst-case memory when a
  /// celebrity account gains followers faster than the window expires them.
  size_t max_in_edges_per_vertex = 0;

  /// If true, Insert() rejects timestamps that go backwards for the same
  /// destination (stream contract violation) with FailedPrecondition;
  /// otherwise they are accepted and clamped for pruning purposes.
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

/// The dynamic in-edge index. Thread-compatible: the cluster layer gives
/// each partition server its own instance (the paper replicates D into
/// every partition).
class DynamicInEdgeIndex {
 public:
  explicit DynamicInEdgeIndex(const DynamicGraphOptions& options = {});

  /// Records edge src -> dst created at `t`. Prunes expired edges of `dst`
  /// as a side effect.
  Status Insert(VertexId src, VertexId dst, Timestamp t);

  /// Appends the distinct sources with an edge to `dst` created in
  /// (now - window, now] into `*out` (cleared first), most-recent timestamp
  /// kept per source, sorted by source id. Returns the number appended.
  size_t GetRecentInEdges(VertexId dst, Timestamp now,
                          std::vector<TimestampedInEdge>* out) const;

  /// Count of distinct in-window sources for `dst` without materializing.
  size_t CountRecentInEdges(VertexId dst, Timestamp now) const;

  /// Prunes expired edges across all destinations and drops empty logs.
  /// Called periodically by long-running servers to bound memory between
  /// touches of cold vertices.
  void PruneAll(Timestamp now);

  const DynamicGraphOptions& options() const { return options_; }
  DynamicGraphStats stats() const;

  /// Approximate bytes held (hash map + logs).
  size_t MemoryUsage() const;

  /// Drops every retained edge (recovery resets state before restoring it
  /// from a snapshot + WAL replay). Lifetime counters are zeroed too.
  void Clear();

  /// Appends a deterministic binary encoding of the retained edges to *out
  /// (destinations in ascending order, so identical state yields identical
  /// bytes regardless of hash-map iteration order).
  void EncodeTo(std::string* out) const;

  /// Replaces this index's contents with edges decoded from EncodeTo()
  /// bytes. Options are unchanged (they come from construction, not the
  /// snapshot). Lifetime counters restart from the decoded edge count.
  /// Corruption, leaving the index unchanged, when the bytes are truncated,
  /// a log is not time-sorted, a destination repeats, or an edge uses
  /// kInvalidVertex (which Insert refuses).
  Status DecodeFrom(const uint8_t* data, size_t size);

 private:
  struct Log {
    std::vector<TimestampedInEdge> entries;
    size_t begin = 0;  // logical front; compacted when wasteful

    size_t size() const { return entries.size() - begin; }
  };

  /// Trims entries of `log` older than `now - window`; updates stats.
  void PruneLog(Log* log, Timestamp now);

  DynamicGraphOptions options_;
  std::unordered_map<VertexId, Log> logs_;
  mutable DynamicGraphStats stats_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_GRAPH_DYNAMIC_GRAPH_H_
