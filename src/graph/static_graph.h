// The "S" data structure of the paper: the static part of the follow graph in
// compressed sparse row (CSR) form with *sorted* adjacency lists.
//
// The paper stores the A -> B follow edges inverted, i.e. keyed by B with the
// sorted list of A's that follow B, "so intersections can be implemented
// efficiently using well-known algorithms" (§2). StaticGraph is direction-
// agnostic: build it from whatever orientation you need and use Transpose()
// to invert. Immutable after Build(), hence trivially shareable across
// threads.
//
// A partition's shard, cut by TransposeIf, names its neighbors by local
// ids: each kept source is written as its rank among the kept sources.
// Ranks rise with ids, so every list keeps its order; the shard keeps the
// rank -> id map (local_ids(), GlobalId()), and its neighbor ids, hub
// bitmaps and any per-id table a caller sizes by neighbor_universe() span
// only the partition's users, a quarter of them in a 4-way group.

#ifndef MAGICRECS_GRAPH_STATIC_GRAPH_H_
#define MAGICRECS_GRAPH_STATIC_GRAPH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/edge.h"
#include "intersect/bitset.h"
#include "util/result.h"
#include "util/status.h"
#include "util/types.h"

namespace magicrecs {

/// Degree at or above which a vertex's adjacency additionally gets a bitmap
/// in the hub index. A hub's bitmap costs neighbor_universe/8 bytes (at
/// most num_vertices/8) vs 4*degree for the array, so degree >=
/// num_vertices/32 caps the bitmap overhead at 2x the array it shadows;
/// the floor keeps small graphs bitmap-free where binary search is already
/// cache-resident. Crossover measured by bench_intersection
/// (docs/experiments-a1.md).
inline constexpr size_t kMinHubDegree = 256;
size_t AutoHubDegreeThreshold(size_t num_vertices);

/// Immutable CSR graph with per-source sorted, de-duplicated neighbor lists,
/// plus an optional hybrid bitset view for hub vertices (BuildHubIndex).
class StaticGraph {
 public:
  /// Empty graph with zero vertices.
  StaticGraph() = default;

  /// Adopts CSR arrays: row `v` of `targets` is [offsets[v], offsets[v+1]),
  /// and offsets.back() == targets.size(). A row may be unsorted and may
  /// repeat a target; each row is sorted and deduplicated in place.
  static StaticGraph FromRows(std::vector<uint64_t> offsets,
                              std::vector<VertexId> targets);

  /// Number of vertices (ids are dense: 0 .. num_vertices()-1).
  size_t num_vertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of directed edges.
  size_t num_edges() const { return targets_.size(); }

  /// Every neighbor id is below this: the number of local ids when the
  /// graph has them, else num_vertices().
  size_t neighbor_universe() const {
    return local_ ? local_ids_.size() : num_vertices();
  }

  /// The rank -> id map of a graph whose neighbors are local ids
  /// (TransposeIf); empty when neighbor ids are vertex ids.
  std::span<const VertexId> local_ids() const { return local_ids_; }

  /// The vertex id a neighbor id stands for (`neighbor` <
  /// neighbor_universe()).
  VertexId GlobalId(VertexId neighbor) const {
    return local_ ? local_ids_[neighbor] : neighbor;
  }

  /// Sorted neighbors of `src`. Returns an empty span for out-of-range ids
  /// (partitioned deployments routinely look up vertices they do not own).
  std::span<const VertexId> Neighbors(VertexId src) const {
    if (src >= num_vertices()) return {};
    return {targets_.data() + offsets_[src],
            targets_.data() + offsets_[src + 1]};
  }

  /// Out-degree of `src` (0 for out-of-range ids).
  size_t OutDegree(VertexId src) const { return Neighbors(src).size(); }

  /// True iff the edge src -> dst exists, `dst` a neighbor id (false at or
  /// past neighbor_universe()). O(1) bit probe when `src` is an indexed
  /// hub, O(log degree) binary search otherwise.
  bool HasEdge(VertexId src, VertexId dst) const;

  /// Builds the hybrid adjacency view: every vertex with degree >=
  /// `hub_degree_threshold` (0 = AutoHubDegreeThreshold of num_vertices)
  /// additionally gets a bitmap over [0, neighbor_universe), packed into
  /// one contiguous arena so hub ∩ hub runs word-parallel and hub
  /// membership probes are O(1).
  /// Derived data only; call before the graph is shared across threads.
  /// Idempotent for a given threshold.
  void BuildHubIndex(size_t hub_degree_threshold = 0);

  bool has_hub_index() const { return hub_degree_threshold_ > 0; }
  size_t hub_degree_threshold() const { return hub_degree_threshold_; }
  size_t num_hubs() const { return hub_count_; }

  /// True iff `v` has a bitmap in the hub index.
  bool IsHub(VertexId v) const {
    return v < hub_slot_.size() && hub_slot_[v] != kNoHubSlot;
  }

  /// Bitmap over [0, neighbor_universe) of `v`'s neighbors; an empty view
  /// when `v` is not an indexed hub (callers fall back to the array list).
  BitsetView HubBitset(VertexId v) const {
    if (!IsHub(v)) return {};
    return {hub_words_.data() + size_t{hub_slot_[v]} * hub_words_per_row_,
            hub_words_per_row_};
  }

  /// Invokes `fn(src, dst)` for every edge in CSR order.
  void ForEachEdge(
      const std::function<void(VertexId, VertexId)>& fn) const;

  /// Returns the transposed graph (every edge reversed). This is how the
  /// follower index ("who follows B") is derived from follow edges
  /// ("A follows B"). O(V + E).
  StaticGraph Transpose() const;

  /// Transpose() of only the edges whose source `keep_source` accepts,
  /// over the same vertex count, with each kept source written as its local
  /// id, its rank among the kept sources: a partition's S shard, cut from
  /// the follow graph without building the full follower index. O(V + E).
  StaticGraph TransposeIf(
      const std::function<bool(VertexId)>& keep_source) const;

  /// Bytes held by the CSR arrays, the local-id map and the hub-index
  /// arena.
  size_t MemoryUsage() const {
    return offsets_.size() * sizeof(uint64_t) +
           targets_.size() * sizeof(VertexId) +
           local_ids_.size() * sizeof(VertexId) +
           hub_words_.size() * sizeof(uint64_t) +
           hub_slot_.size() * sizeof(uint32_t);
  }

 private:
  friend class StaticGraphBuilder;

  static constexpr uint32_t kNoHubSlot = UINT32_MAX;

  /// The transpose of the rows of `sources` (ascending ids), writing
  /// sources[r] as r and keeping `sources` as the local-id map when
  /// `local`, else as itself.
  StaticGraph TransposeRows(std::vector<VertexId> sources, bool local) const;

  std::vector<uint64_t> offsets_;  // size num_vertices()+1
  std::vector<VertexId> targets_;  // size num_edges(), sorted per source
  // Neighbors are local ids (TransposeIf), local_ids_ their rank -> id map.
  bool local_ = false;
  std::vector<VertexId> local_ids_;

  // Hybrid hub view (BuildHubIndex): hub_slot_[v] is the row index of v's
  // bitmap inside the hub_words_ arena, kNoHubSlot for array-only vertices.
  size_t hub_degree_threshold_ = 0;
  size_t hub_words_per_row_ = 0;
  size_t hub_count_ = 0;
  std::vector<uint32_t> hub_slot_;  // size num_vertices() once built
  std::vector<uint64_t> hub_words_;  // hub_count_ * hub_words_per_row_
};

/// Accumulates edges and produces a StaticGraph. Edges may arrive in any
/// order and may contain duplicates (deduplicated at Build time).
class StaticGraphBuilder {
 public:
  /// If `num_vertices` > 0, vertex ids are validated against it; otherwise
  /// the vertex count is inferred as max(id)+1 at Build time.
  explicit StaticGraphBuilder(size_t num_vertices = 0)
      : declared_vertices_(num_vertices) {}

  /// Adds a directed edge. Returns InvalidArgument for invalid or
  /// out-of-range ids.
  Status AddEdge(VertexId src, VertexId dst);

  /// Adds a batch of edges; stops at the first error.
  Status AddEdges(const std::vector<Edge>& edges);

  size_t num_pending_edges() const { return edges_.size(); }

  /// Sorts, deduplicates, and packs into CSR form. The builder is left empty
  /// and reusable.
  Result<StaticGraph> Build();

 private:
  size_t declared_vertices_;
  size_t max_vertex_seen_ = 0;
  bool any_edge_ = false;
  std::vector<Edge> edges_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_GRAPH_STATIC_GRAPH_H_
