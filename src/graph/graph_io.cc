#include "graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "util/random.h"
#include "util/str_format.h"

namespace magicrecs {

Status SaveEdgeList(const StaticGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Unavailable(
        StrFormat("cannot open %s for writing", path.c_str()));
  }
  out << "# magicrecs edge list: src dst\n";
  graph.ForEachEdge([&](VertexId src, VertexId dst) {
    out << src << ' ' << dst << '\n';
  });
  out.flush();
  if (!out) {
    return Status::Unavailable(StrFormat("write to %s failed", path.c_str()));
  }
  return Status::OK();
}

namespace {

/// isspace in the "C" locale: ' ', '\t', '\n', '\v', '\f', '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Parses one id from [p, end) as `std::istream >> uint64_t` does: leading
/// whitespace, an optional sign ('-' negates modulo 2^64), then at least one
/// decimal digit, failing on overflow. Returns the position after the
/// digits, or nullptr on failure.
const char* ParseId(const char* p, const char* end, uint64_t* out) {
  while (p != end && IsSpace(*p)) ++p;
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  const auto [next, ec] = std::from_chars(p, end, *out);
  if (ec != std::errc()) return nullptr;
  if (negative) *out = 0 - *out;
  return next;
}

/// Calls `on_edge(src, dst, lineno)` for every edge line of `path`, read
/// through a `buffer_bytes` buffer, and stops at the first error, its own
/// or one `on_edge` returns.
template <typename OnEdge>
Status ScanEdgeFile(const std::string& path, size_t buffer_bytes,
                    OnEdge&& on_edge) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  std::vector<char> buffer(std::max<size_t>(buffer_bytes, 1));
  size_t begin = 0;  // unparsed bytes are [begin, end)
  size_t end = 0;
  size_t lineno = 0;
  bool eof = false;
  while (true) {
    const char* data = buffer.data();
    const char* newline = static_cast<const char*>(
        std::memchr(data + begin, '\n', end - begin));
    if (newline == nullptr && !eof) {
      // Keep the partial line and refill behind it.
      std::memmove(buffer.data(), data + begin, end - begin);
      end -= begin;
      begin = 0;
      if (end == buffer.size()) buffer.resize(2 * buffer.size());
      const size_t n = std::fread(buffer.data() + end, 1, buffer.size() - end,
                                  file.get());
      if (n == 0) {
        if (std::ferror(file.get())) {
          return Status::Unavailable(
              StrFormat("read from %s failed", path.c_str()));
        }
        eof = true;
      }
      end += n;
      continue;
    }
    if (newline == nullptr && begin == end) return Status::OK();
    const char* line = data + begin;
    const char* line_end = newline != nullptr ? newline : data + end;
    begin = static_cast<size_t>(line_end - data) + (newline != nullptr);
    ++lineno;
    if (line == line_end || *line == '#') continue;
    uint64_t src = 0;
    uint64_t dst = 0;
    const char* p = ParseId(line, line_end, &src);
    if (p == nullptr || ParseId(p, line_end, &dst) == nullptr) {
      return Status::Corruption(
          StrFormat("%s:%zu: malformed edge line", path.c_str(), lineno));
    }
    if (src >= kInvalidVertex || dst >= kInvalidVertex) {
      return Status::Corruption(
          StrFormat("%s:%zu: vertex id out of range", path.c_str(), lineno));
    }
    MAGICRECS_RETURN_IF_ERROR(on_edge(static_cast<VertexId>(src),
                                      static_cast<VertexId>(dst), lineno));
  }
}

/// Order-dependent fingerprint of an edge sequence, one step per edge.
uint64_t NextFingerprint(uint64_t fingerprint, VertexId src, VertexId dst) {
  return SplitMix64(fingerprint ^ ((uint64_t{src} << 32) | dst));
}

/// A later pass read other edges than the first; `where` is path[:line].
Status Changed(const std::string& where) {
  return Status::Corruption(
      StrFormat("%s: edge list changed between passes", where.c_str()));
}

}  // namespace

namespace graph_io_internal {

Result<StaticGraph> LoadEdgeList(const std::string& count_path,
                                 const std::string& place_path,
                                 size_t buffer_bytes) {
  // Pass 1: validate, and count the vertices and each source's edges. The
  // count array grows only as far as the file is long, so a stray large id
  // costs no memory before a later line rejects the file; past that bound,
  // sources are counted in a pass of their own once the file has validated.
  std::error_code size_error;
  const uintmax_t file_bytes =
      std::filesystem::file_size(count_path, size_error);
  const size_t count_limit =
      std::max<uintmax_t>(size_error ? 0 : file_bytes, kReadBufferBytes);
  std::vector<uint64_t> counts;
  size_t num_vertices = 0;
  uint64_t fingerprint = 0;
  bool counted = true;
  const auto count = [&](VertexId src, VertexId dst, size_t) {
    num_vertices =
        std::max<size_t>(num_vertices, size_t{std::max(src, dst)} + 1);
    fingerprint = NextFingerprint(fingerprint, src, dst);
    if (counted && src >= counts.size()) {
      if (src >= count_limit) counted = false;
      else counts.resize(size_t{src} + 1, 0);
    }
    if (counted) ++counts[src];
    return Status::OK();
  };
  MAGICRECS_RETURN_IF_ERROR(ScanEdgeFile(count_path, buffer_bytes, count));
  if (!counted) {
    counts.assign(num_vertices, 0);
    num_vertices = 0;
    fingerprint = 0;
    counted = true;
    MAGICRECS_RETURN_IF_ERROR(ScanEdgeFile(count_path, buffer_bytes, count));
    if (!counted || num_vertices != counts.size()) return Changed(count_path);
  }

  std::vector<uint64_t> offsets(num_vertices + 1, 0);
  for (size_t v = 0; v < counts.size(); ++v) {
    offsets[v + 1] = counts[v];
  }
  for (size_t v = 0; v < num_vertices; ++v) offsets[v + 1] += offsets[v];

  // Pass 2: each edge at its source's cursor, kept in the count array.
  std::vector<uint64_t> cursor = std::move(counts);
  cursor.assign(offsets.begin(), offsets.end() - 1);
  std::vector<VertexId> targets(offsets.back());
  uint64_t placed = 0;
  uint64_t place_fingerprint = 0;
  MAGICRECS_RETURN_IF_ERROR(ScanEdgeFile(
      place_path, buffer_bytes,
      [&](VertexId src, VertexId dst, size_t lineno) {
        if (src >= num_vertices || cursor[src] == offsets[src + 1]) {
          return Changed(StrFormat("%s:%zu", place_path.c_str(), lineno));
        }
        targets[cursor[src]++] = dst;
        ++placed;
        place_fingerprint = NextFingerprint(place_fingerprint, src, dst);
        return Status::OK();
      }));
  if (placed != targets.size() || place_fingerprint != fingerprint) {
    return Changed(place_path);
  }
  return StaticGraph::FromRows(std::move(offsets), std::move(targets));
}

}  // namespace graph_io_internal

Result<StaticGraph> LoadEdgeList(const std::string& path) {
  return graph_io_internal::LoadEdgeList(path, path,
                                         graph_io_internal::kReadBufferBytes);
}

}  // namespace magicrecs
