#include "graph/static_graph.h"

#include <algorithm>
#include <cstring>

#include "persist/codec.h"
#include "util/str_format.h"

namespace magicrecs {

size_t AutoHubDegreeThreshold(size_t num_vertices) {
  return std::max(kMinHubDegree, num_vertices / 32);
}

bool StaticGraph::HasEdge(VertexId src, VertexId dst) const {
  if (IsHub(src)) {
    return dst < num_vertices() && HubBitset(src).Test(dst);
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
  hub_words_per_row_ = (v + 63) / 64;
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

StaticGraph StaticGraph::Transpose() const {
  StaticGraph out;
  const size_t v = num_vertices();
  out.offsets_.assign(v + 1, 0);
  out.targets_.resize(num_edges());
  // Counting sort by destination: one pass to count, one to place. The
  // source ids are visited in increasing order, so each transposed adjacency
  // list comes out already sorted.
  for (const VertexId dst : targets_) {
    out.offsets_[dst + 1]++;
  }
  for (size_t i = 1; i <= v; ++i) out.offsets_[i] += out.offsets_[i - 1];
  std::vector<uint64_t> cursor(out.offsets_.begin(), out.offsets_.end() - 1);
  for (size_t src = 0; src < v; ++src) {
    for (uint64_t i = offsets_[src]; i < offsets_[src + 1]; ++i) {
      out.targets_[cursor[targets_[i]]++] = static_cast<VertexId>(src);
    }
  }
  return out;
}

void StaticGraph::EncodeTo(std::string* out) const {
  persist::PutU64(out, offsets_.size());
  persist::PutU64(out, targets_.size());
  out->append(reinterpret_cast<const char*>(offsets_.data()),
              offsets_.size() * sizeof(uint64_t));
  out->append(reinterpret_cast<const char*>(targets_.data()),
              targets_.size() * sizeof(VertexId));
}

Result<StaticGraph> StaticGraph::DecodeFrom(const uint8_t* data, size_t size) {
  persist::ByteReader reader(data, size);
  uint64_t num_offsets = 0;
  uint64_t num_targets = 0;
  if (!reader.GetU64(&num_offsets) || !reader.GetU64(&num_targets)) {
    return Status::Corruption("static graph encoding truncated");
  }
  // Guard the multiplications below against wrap-around from hostile counts.
  if (num_offsets > reader.remaining() / sizeof(uint64_t) ||
      num_targets > reader.remaining() / sizeof(VertexId)) {
    return Status::Corruption("static graph arrays truncated");
  }
  const size_t offset_bytes = num_offsets * sizeof(uint64_t);
  const size_t target_bytes = num_targets * sizeof(VertexId);
  if (reader.remaining() < offset_bytes + target_bytes) {
    return Status::Corruption("static graph arrays truncated");
  }
  StaticGraph graph;
  graph.offsets_.resize(num_offsets);
  graph.targets_.resize(num_targets);
  // An empty array's data() may be null, which memcpy rejects even for
  // zero bytes.
  if (offset_bytes > 0) {
    std::memcpy(graph.offsets_.data(), reader.cursor(), offset_bytes);
  }
  reader.Skip(offset_bytes);
  if (target_bytes > 0) {
    std::memcpy(graph.targets_.data(), reader.cursor(), target_bytes);
  }
  reader.Skip(target_bytes);

  // Structural validation: offsets must be a monotone prefix-sum ending at
  // the target count, and every target id must be in range.
  if (num_offsets == 0) {
    if (num_targets != 0) {
      return Status::Corruption("edges without vertices in static graph");
    }
    return graph;
  }
  if (graph.offsets_.front() != 0 || graph.offsets_.back() != num_targets) {
    return Status::Corruption("static graph offsets do not span the targets");
  }
  for (size_t i = 1; i < num_offsets; ++i) {
    if (graph.offsets_[i] < graph.offsets_[i - 1]) {
      return Status::Corruption("static graph offsets are not monotone");
    }
  }
  const size_t num_vertices = num_offsets - 1;
  for (const VertexId t : graph.targets_) {
    if (t >= num_vertices) {
      return Status::Corruption("static graph target id out of range");
    }
  }
  return graph;
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
