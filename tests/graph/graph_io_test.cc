#include "graph/graph_io.h"

#include <cstdio>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

namespace magicrecs {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/magicrecs_io_" + name;
  }

  void TearDown() override {
    for (const auto& path : created_) std::remove(path.c_str());
  }

  std::string Track(const std::string& path) {
    created_.push_back(path);
    return path;
  }

  std::vector<std::string> created_;
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdges({{0, 1}, {1, 2}, {2, 0}, {0, 3}}).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());

  const std::string path = Track(TempPath("roundtrip.txt"));
  ASSERT_TRUE(SaveEdgeList(*graph, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  std::set<std::pair<VertexId, VertexId>> a, b;
  graph->ForEachEdge([&](VertexId s, VertexId d) { a.insert({s, d}); });
  loaded->ForEachEdge([&](VertexId s, VertexId d) { b.insert({s, d}); });
  EXPECT_EQ(a, b);
}

TEST_F(GraphIoTest, LoadMissingFileIsNotFound) {
  auto result = LoadEdgeList("/nonexistent/path/nope.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(GraphIoTest, UnreadablePathIsAnErrorNotAnEmptyGraph) {
  // A directory opens but cannot be read.
  auto result = LoadEdgeList(testing::TempDir());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
}

TEST_F(GraphIoTest, CommentsAndBlankLinesSkipped) {
  const std::string path = Track(TempPath("comments.txt"));
  {
    std::ofstream out(path);
    out << "# header\n\n0 1\n# mid comment\n1 2\n";
  }
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_edges(), 2u);
}

TEST_F(GraphIoTest, MalformedLineIsCorruption) {
  const std::string path = Track(TempPath("malformed.txt"));
  {
    std::ofstream out(path);
    out << "0 1\nbogus line\n";
  }
  auto loaded = LoadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find(":2"), std::string::npos)
      << "error should cite the line number: " << loaded.status();
}

TEST_F(GraphIoTest, OversizedVertexIdIsCorruption) {
  const std::string path = Track(TempPath("oversized.txt"));
  {
    std::ofstream out(path);
    out << "0 4294967295\n";  // kInvalidVertex
  }
  auto loaded = LoadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(GraphIoTest, EmptyGraphRoundTrips) {
  StaticGraph empty;
  const std::string path = Track(TempPath("empty.txt"));
  ASSERT_TRUE(SaveEdgeList(empty, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), 0u);
}

}  // namespace
}  // namespace magicrecs
