// Differential test of LoadEdgeList: random edge files, written in every
// layout the loader accepts (duplicates, unsorted rows, comments, empty
// lines, CRLF endings, tabs, leading whitespace, signed ids, trailing
// fields, long lines, no final newline), must load to exactly the graph
// StaticGraphBuilder builds from the same edges. Read buffers as small as
// one byte make lines straddle every refill. Malformed and out-of-range
// lines must come back as Corruption citing path:line, in the counting
// pass and in the placing pass alike.
//
// The files are seeded; failures print the seed, rerun with
// MAGICRECS_FUZZ_SEED=<seed>.

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../persist/scoped_temp_dir.h"
#include "graph/graph_io.h"
#include "util/random.h"
#include "util/str_format.h"

namespace magicrecs {
namespace {

uint64_t BaseSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 1357;
}

constexpr int kTrials = 300;

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

/// `a` and `b` have the same vertex count and the same rows, i.e. equal
/// CSR offsets and targets.
::testing::AssertionResult SameGraph(const StaticGraph& a,
                                     const StaticGraph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return ::testing::AssertionFailure()
           << a.num_vertices() << " vertices / " << a.num_edges()
           << " edges vs " << b.num_vertices() << " / " << b.num_edges();
  }
  for (size_t v = 0; v < a.num_vertices(); ++v) {
    const auto x = a.Neighbors(static_cast<VertexId>(v));
    const auto y = b.Neighbors(static_cast<VertexId>(v));
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
      return ::testing::AssertionFailure() << "row " << v << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// One random edge file and the builder's graph of the same edges.
struct EdgeFile {
  std::string bytes;
  std::vector<Edge> edges;
  size_t lines = 0;  ///< lines in `bytes`, counted as the loader counts
};

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.UniformInt(options.size())];
}

/// An id as the loader reads it: plain, zero-padded or '+'-signed.
std::string IdText(Rng& rng, VertexId id) {
  switch (rng.UniformInt(6)) {
    case 0:
      return StrFormat("00%u", id);
    case 1:
      return StrFormat("+%u", id);
    default:
      return std::to_string(id);
  }
}

EdgeFile RandomEdgeFile(Rng& rng) {
  EdgeFile file;
  const uint64_t max_id = 1 + rng.UniformInt(rng.Bernoulli(0.2) ? 2'000 : 60);
  const size_t num_edges = rng.UniformInt(400);
  const bool crlf = rng.Bernoulli(0.3);
  const std::string eol = crlf ? "\r\n" : "\n";
  for (size_t i = 0; i < num_edges; ++i) {
    // Interleave comments, some longer than any small read buffer, and
    // empty lines ("\r\n" would be a malformed line, so those are "\n").
    while (rng.Bernoulli(0.1)) {
      if (rng.Bernoulli(0.5)) {
        file.bytes += '#';
        file.bytes.append(rng.UniformInt(300), 'c');
        file.bytes += eol;
      } else {
        file.bytes += "\n";
      }
      ++file.lines;
    }
    Edge e;
    if (!file.edges.empty() && rng.Bernoulli(0.15)) {
      e = file.edges[rng.UniformInt(file.edges.size())];  // a duplicate
    } else {
      e = Edge{static_cast<VertexId>(rng.UniformInt(max_id)),
               static_cast<VertexId>(rng.UniformInt(max_id))};
    }
    file.edges.push_back(e);
    file.bytes += Pick(rng, {"", "", "", " ", "\t", " \t "});
    file.bytes += IdText(rng, e.src);
    file.bytes += Pick(rng, {" ", " ", "\t", "  ", " \t", "\v"});
    file.bytes += IdText(rng, e.dst);
    file.bytes += Pick(rng, {"", "", "", " 1700000000", "\t42 extra fields",
                             " # trailing note", " ", "x",
                             StrFormat(" %0*d", int(rng.UniformInt(200)), 9)});
    file.bytes += eol;
    ++file.lines;
  }
  if (!file.bytes.empty() && rng.Bernoulli(0.3)) {
    // No final newline (a CRLF file keeps its '\r', which parses as space).
    file.bytes.pop_back();
  }
  return file;
}

StaticGraph BuilderGraph(const std::vector<Edge>& edges) {
  StaticGraphBuilder builder;
  EXPECT_TRUE(builder.AddEdges(edges).ok());
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// A read buffer from one byte up, or the production one.
size_t RandomBufferBytes(Rng& rng) {
  return rng.Bernoulli(0.2) ? graph_io_internal::kReadBufferBytes
                            : 1 + rng.UniformInt(48);
}

TEST(GraphIoDifferentialTest, LoadsWhatTheBuilderBuilds) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/edges.txt";
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(trial);
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    const EdgeFile file = RandomEdgeFile(rng);
    WriteFile(path, file.bytes);
    const size_t buffer_bytes = RandomBufferBytes(rng);
    auto loaded = graph_io_internal::LoadEdgeList(path, path, buffer_bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status() << " buffer " << buffer_bytes;
    ASSERT_TRUE(SameGraph(*loaded, BuilderGraph(file.edges)))
        << "buffer " << buffer_bytes;
  }
}

/// A line the loader must reject, and the message it must carry.
struct BadLine {
  std::string text;
  std::string what;
};

BadLine RandomBadLine(Rng& rng) {
  static const std::vector<BadLine> kBad = {
      {"bogus line", "malformed edge line"},
      {"12", "malformed edge line"},
      {"1 x", "malformed edge line"},
      {"- 1 2", "malformed edge line"},
      {"0x1 2", "malformed edge line"},
      {"  ", "malformed edge line"},
      {"\r", "malformed edge line"},
      {" # indented comment", "malformed edge line"},
      {"18446744073709551616 1", "malformed edge line"},
      {"4294967295 1", "vertex id out of range"},
      {"1 99999999999", "vertex id out of range"},
      {"-1 2", "vertex id out of range"},
  };
  return kBad[rng.UniformInt(kBad.size())];
}

/// The file with `bad` inserted as line `*lineno` (1-based), chosen at
/// random among the file's lines.
std::string InsertLine(Rng& rng, const EdgeFile& file, const std::string& bad,
                       size_t* lineno) {
  std::string bytes = file.bytes;
  if (!bytes.empty() && bytes.back() != '\n') bytes += '\n';
  const size_t before = rng.UniformInt(file.lines + 1);
  size_t pos = 0;
  for (size_t i = 0; i < before; ++i) pos = bytes.find('\n', pos) + 1;
  bytes.insert(pos, bad + "\n");
  *lineno = before + 1;
  return bytes;
}

TEST(GraphIoDifferentialTest, BadLinesCitePathAndLineInBothPasses) {
  ScopedTempDir dir;
  const std::string good = dir.path() + "/good.txt";
  const std::string bad = dir.path() + "/bad.txt";
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(trial);
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    const EdgeFile file = RandomEdgeFile(rng);
    const BadLine line = RandomBadLine(rng);
    size_t lineno = 0;
    WriteFile(good, file.bytes);
    WriteFile(bad, InsertLine(rng, file, line.text, &lineno));
    const size_t buffer_bytes = RandomBufferBytes(rng);
    // The counting pass reads the bad file; then the placing pass does,
    // after a counting pass over the good one.
    for (const bool in_place_pass : {false, true}) {
      auto loaded = graph_io_internal::LoadEdgeList(
          in_place_pass ? good : bad, bad, buffer_bytes);
      ASSERT_FALSE(loaded.ok()) << "place pass " << in_place_pass;
      EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
      EXPECT_EQ(loaded.status().message(),
                StrFormat("%s:%zu: %s", bad.c_str(), lineno, line.what.c_str()))
          << "place pass " << in_place_pass;
    }
  }
}

TEST(GraphIoDifferentialTest, EdgesThatChangeBetweenPassesAreCorruption) {
  ScopedTempDir dir;
  const std::string first = dir.path() + "/first.txt";
  const std::string second = dir.path() + "/second.txt";
  const std::string base = "# edges\n0 1\n0 2\n1 2\n2 0\n";
  WriteFile(first, base);
  // Each second file differs from the first in one way: an edge added, an
  // edge dropped, an edge moved to another row, a target changed within its
  // row, a source past the first pass's vertices, and two lines swapped.
  for (const std::string& changed :
       {base + "1 0\n", std::string("0 1\n0 2\n1 2\n"), base + "# x\n",
        std::string("0 1\n0 2\n1 2\n1 0\n"), std::string("0 1\n0 2\n1 0\n2 0\n"),
        std::string("0 1\n0 2\n1 2\n7 0\n"), std::string("0 2\n0 1\n1 2\n2 0\n")}) {
    WriteFile(second, changed);
    auto loaded = graph_io_internal::LoadEdgeList(first, second, 4);
    if (changed == base + "# x\n") {
      // A comment is not an edge: the same edges load.
      EXPECT_TRUE(loaded.ok()) << loaded.status();
      continue;
    }
    ASSERT_FALSE(loaded.ok()) << changed;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
    EXPECT_NE(loaded.status().message().find(second), std::string::npos)
        << loaded.status();
    EXPECT_NE(loaded.status().message().find("changed between passes"),
              std::string::npos)
        << loaded.status();
  }
}

TEST(GraphIoDifferentialTest, SourcesPastTheFileLengthAreCountedInTheirOwnPass) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/sparse_ids.txt";
  // A source id larger than the file is long (and than the read buffer)
  // is counted in a pass of its own, once the whole file has validated.
  const VertexId far = graph_io_internal::kReadBufferBytes + 12'345;
  WriteFile(path, StrFormat("3 1\n%u 2\n%u 0\n0 %u\n", far, far, far));
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(SameGraph(*loaded, BuilderGraph({{3, 1}, {far, 2}, {far, 0},
                                               {0, far}})));

  // A file that fails validation after such an id is rejected as before.
  WriteFile(path, StrFormat("3 1\n%u 2\nbogus\n", far));
  loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            path + ":3: malformed edge line");
}

}  // namespace
}  // namespace magicrecs
