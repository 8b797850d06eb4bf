// Text edge-list persistence: the offline "compute A->B edges and load them
// into the system periodically" path of the paper, at laptop scale.
//
// Format: one edge per line, "src dst" in whitespace-separated decimal ids;
// fields after the two ids (a timestamp, say) are ignored. Lines starting
// with '#' are comments, and empty lines are skipped.

#ifndef MAGICRECS_GRAPH_GRAPH_IO_H_
#define MAGICRECS_GRAPH_GRAPH_IO_H_

#include <cstddef>
#include <string>

#include "graph/static_graph.h"
#include "util/result.h"
#include "util/status.h"

namespace magicrecs {

/// Writes every edge of `graph` to `path` as "src dst" lines.
Status SaveEdgeList(const StaticGraph& graph, const std::string& path);

/// Reads an edge list and builds the graph, with max(id)+1 vertices. The
/// file is streamed twice, once to count each source's edges and once to
/// place them, so the graph is built at its final size and no edge list is
/// held beside it. NotFound when the file cannot be opened; Corruption
/// citing path:line for a malformed line or an id >= kInvalidVertex, and
/// Corruption when the second pass reads other edges than the first.
Result<StaticGraph> LoadEdgeList(const std::string& path);

namespace graph_io_internal {

/// The read buffer of LoadEdgeList. It grows only for a longer line.
inline constexpr size_t kReadBufferBytes = size_t{1} << 16;

/// LoadEdgeList with its seams open for tests: the counting pass reads
/// `count_path` and the placing pass `place_path`, as a file that changes
/// between the passes would read, through a `buffer_bytes` buffer.
Result<StaticGraph> LoadEdgeList(const std::string& count_path,
                                 const std::string& place_path,
                                 size_t buffer_bytes);

}  // namespace graph_io_internal

}  // namespace magicrecs

#endif  // MAGICRECS_GRAPH_GRAPH_IO_H_
