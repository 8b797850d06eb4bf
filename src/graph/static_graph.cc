#include "graph/static_graph.h"

#include <algorithm>
#include <numeric>

#include "util/str_format.h"

namespace magicrecs {

size_t AutoHubDegreeThreshold(size_t num_vertices) {
  return std::max(kMinHubDegree, num_vertices / 32);
}

bool StaticGraph::HasEdge(VertexId src, VertexId dst) const {
  if (IsHub(src)) {
    return dst < neighbor_universe() && HubBitset(src).Test(dst);
  }
  const auto neighbors = Neighbors(src);
  return std::binary_search(neighbors.begin(), neighbors.end(), dst);
}

void StaticGraph::BuildHubIndex(size_t hub_degree_threshold) {
  const size_t v = num_vertices();
  if (hub_degree_threshold == 0) {
    hub_degree_threshold = AutoHubDegreeThreshold(v);
  }
  if (has_hub_index() && hub_degree_threshold_ == hub_degree_threshold) {
    return;
  }
  hub_degree_threshold_ = hub_degree_threshold;
  hub_words_per_row_ = (neighbor_universe() + 63) / 64;
  hub_slot_.assign(v, kNoHubSlot);
  hub_count_ = 0;
  for (size_t src = 0; src < v; ++src) {
    if (offsets_[src + 1] - offsets_[src] >= hub_degree_threshold) {
      hub_slot_[src] = static_cast<uint32_t>(hub_count_++);
    }
  }
  hub_words_.assign(hub_count_ * hub_words_per_row_, 0);
  for (size_t src = 0; src < v; ++src) {
    if (hub_slot_[src] == kNoHubSlot) continue;
    uint64_t* row = hub_words_.data() + size_t{hub_slot_[src]} * hub_words_per_row_;
    for (uint64_t i = offsets_[src]; i < offsets_[src + 1]; ++i) {
      const VertexId t = targets_[i];
      row[static_cast<size_t>(t) >> 6] |= uint64_t{1} << (t & 63);
    }
  }
}

void StaticGraph::ForEachEdge(
    const std::function<void(VertexId, VertexId)>& fn) const {
  const size_t v = num_vertices();
  for (size_t src = 0; src < v; ++src) {
    for (uint64_t i = offsets_[src]; i < offsets_[src + 1]; ++i) {
      fn(static_cast<VertexId>(src), targets_[i]);
    }
  }
}

StaticGraph StaticGraph::FromRows(std::vector<uint64_t> offsets,
                                  std::vector<VertexId> targets) {
  // Sort and deduplicate each row, then slide it down over the duplicates
  // removed before it.
  const size_t v = offsets.empty() ? 0 : offsets.size() - 1;
  uint64_t kept = 0;
  uint64_t begin = 0;
  for (size_t src = 0; src < v; ++src) {
    const auto first = targets.begin() + static_cast<std::ptrdiff_t>(begin);
    auto last = targets.begin() + static_cast<std::ptrdiff_t>(offsets[src + 1]);
    std::sort(first, last);
    last = std::unique(first, last);
    begin = offsets[src + 1];
    offsets[src] = kept;
    if (kept != static_cast<uint64_t>(first - targets.begin())) {
      std::move(first, last,
                targets.begin() + static_cast<std::ptrdiff_t>(kept));
    }
    kept += static_cast<uint64_t>(last - first);
  }
  if (v > 0) offsets[v] = kept;
  if (kept != targets.size()) {
    targets.resize(kept);
    targets.shrink_to_fit();
  }
  StaticGraph graph;
  graph.offsets_ = std::move(offsets);
  graph.targets_ = std::move(targets);
  return graph;
}

StaticGraph StaticGraph::Transpose() const {
  std::vector<VertexId> sources(num_vertices());
  std::iota(sources.begin(), sources.end(), VertexId{0});
  return TransposeRows(std::move(sources), /*local=*/false);
}

StaticGraph StaticGraph::TransposeIf(
    const std::function<bool(VertexId)>& keep_source) const {
  std::vector<VertexId> sources;
  for (size_t src = 0; src < num_vertices(); ++src) {
    if (keep_source(static_cast<VertexId>(src))) {
      sources.push_back(static_cast<VertexId>(src));
    }
  }
  return TransposeRows(std::move(sources), /*local=*/true);
}

StaticGraph StaticGraph::TransposeRows(std::vector<VertexId> sources,
                                       bool local) const {
  StaticGraph out;
  const size_t v = num_vertices();
  out.offsets_.assign(v + 1, 0);
  // Counting sort by destination: one pass to count, one to place. The
  // sources are visited in increasing order, and ranks rise with them, so
  // each transposed adjacency list comes out already sorted.
  for (const VertexId src : sources) {
    for (uint64_t i = offsets_[src]; i < offsets_[src + 1]; ++i) {
      out.offsets_[targets_[i] + 1]++;
    }
  }
  for (size_t i = 1; i <= v; ++i) out.offsets_[i] += out.offsets_[i - 1];
  out.targets_.resize(out.offsets_[v]);
  std::vector<uint64_t> cursor(out.offsets_.begin(), out.offsets_.end() - 1);
  for (size_t rank = 0; rank < sources.size(); ++rank) {
    const VertexId src = sources[rank];
    const VertexId written = local ? static_cast<VertexId>(rank) : src;
    for (uint64_t i = offsets_[src]; i < offsets_[src + 1]; ++i) {
      out.targets_[cursor[targets_[i]]++] = written;
    }
  }
  if (local) {
    out.local_ = true;
    out.local_ids_ = std::move(sources);
  }
  return out;
}

Status StaticGraphBuilder::AddEdge(VertexId src, VertexId dst) {
  if (src == kInvalidVertex || dst == kInvalidVertex) {
    return Status::InvalidArgument("edge uses the reserved invalid vertex id");
  }
  if (declared_vertices_ > 0 &&
      (src >= declared_vertices_ || dst >= declared_vertices_)) {
    return Status::OutOfRange(
        StrFormat("edge (%u -> %u) exceeds declared vertex count %zu", src,
                  dst, declared_vertices_));
  }
  max_vertex_seen_ = std::max<size_t>(max_vertex_seen_, std::max(src, dst));
  any_edge_ = true;
  edges_.push_back(Edge{src, dst});
  return Status::OK();
}

Status StaticGraphBuilder::AddEdges(const std::vector<Edge>& edges) {
  for (const Edge& e : edges) {
    MAGICRECS_RETURN_IF_ERROR(AddEdge(e.src, e.dst));
  }
  return Status::OK();
}

Result<StaticGraph> StaticGraphBuilder::Build() {
  size_t num_vertices = declared_vertices_;
  if (num_vertices == 0 && any_edge_) num_vertices = max_vertex_seen_ + 1;

  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  StaticGraph graph;
  graph.offsets_.assign(num_vertices + 1, 0);
  graph.targets_.reserve(edges_.size());
  for (const Edge& e : edges_) {
    graph.offsets_[e.src + 1]++;
    graph.targets_.push_back(e.dst);
  }
  for (size_t i = 1; i <= num_vertices; ++i) {
    graph.offsets_[i] += graph.offsets_[i - 1];
  }

  edges_.clear();
  edges_.shrink_to_fit();
  max_vertex_seen_ = 0;
  any_edge_ = false;
  return graph;
}

}  // namespace magicrecs
