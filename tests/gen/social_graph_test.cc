#include "gen/social_graph.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "graph/degree_stats.h"

namespace magicrecs {
namespace {

SocialGraphOptions SmallOptions() {
  SocialGraphOptions opt;
  opt.num_users = 2'000;
  opt.mean_followees = 20;
  opt.seed = 1;
  return opt;
}

TEST(SocialGraphTest, GeneratesRequestedUserCount) {
  auto graph = SocialGraphGenerator(SmallOptions()).Generate();
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->num_vertices(), 2'000u);
  EXPECT_GT(graph->num_edges(), 0u);
}

TEST(SocialGraphTest, DeterministicInSeed) {
  auto a = SocialGraphGenerator(SmallOptions()).Generate();
  auto b = SocialGraphGenerator(SmallOptions()).Generate();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->num_edges(), b->num_edges());
  std::set<std::pair<VertexId, VertexId>> ea, eb;
  a->ForEachEdge([&](VertexId s, VertexId d) { ea.insert({s, d}); });
  b->ForEachEdge([&](VertexId s, VertexId d) { eb.insert({s, d}); });
  EXPECT_EQ(ea, eb);
}

TEST(SocialGraphTest, DifferentSeedsDiffer) {
  SocialGraphOptions other = SmallOptions();
  other.seed = 99;
  auto a = SocialGraphGenerator(SmallOptions()).Generate();
  auto b = SocialGraphGenerator(other).Generate();
  ASSERT_TRUE(a.ok() && b.ok());
  std::set<std::pair<VertexId, VertexId>> ea, eb;
  a->ForEachEdge([&](VertexId s, VertexId d) { ea.insert({s, d}); });
  b->ForEachEdge([&](VertexId s, VertexId d) { eb.insert({s, d}); });
  EXPECT_NE(ea, eb);
}

TEST(SocialGraphTest, NoSelfLoops) {
  auto graph = SocialGraphGenerator(SmallOptions()).Generate();
  ASSERT_TRUE(graph.ok());
  graph->ForEachEdge([](VertexId s, VertexId d) { EXPECT_NE(s, d); });
}

TEST(SocialGraphTest, MeanOutDegreeApproximatesTarget) {
  auto graph = SocialGraphGenerator(SmallOptions()).Generate();
  ASSERT_TRUE(graph.ok());
  const DegreeStats stats = ComputeDegreeStats(*graph);
  // Reciprocity and dedup perturb the mean; it must land in the ballpark.
  EXPECT_GT(stats.mean_degree, 10.0);
  EXPECT_LT(stats.mean_degree, 45.0);
}

TEST(SocialGraphTest, InDegreeIsHeavyTailed) {
  auto graph = SocialGraphGenerator(SmallOptions()).Generate();
  ASSERT_TRUE(graph.ok());
  const DegreeStats in_stats = ComputeDegreeStats(graph->Transpose());
  // Zipf targets concentrate followers: the top 1% must hold far more than
  // a uniform share (1%) of the edges.
  EXPECT_GT(in_stats.top1pct_edge_share, 0.10);
  EXPECT_GT(in_stats.max_degree, 20u * 5u);
}

TEST(SocialGraphTest, ReciprocityProducesMutualEdges) {
  SocialGraphOptions opt = SmallOptions();
  opt.reciprocity = 0.5;
  auto graph = SocialGraphGenerator(opt).Generate();
  ASSERT_TRUE(graph.ok());
  uint64_t mutual = 0, total = 0;
  graph->ForEachEdge([&](VertexId s, VertexId d) {
    ++total;
    if (graph->HasEdge(d, s)) ++mutual;
  });
  EXPECT_GT(static_cast<double>(mutual) / static_cast<double>(total), 0.3);
}

TEST(SocialGraphTest, ZeroReciprocityStillGenerates) {
  SocialGraphOptions opt = SmallOptions();
  opt.reciprocity = 0;
  auto graph = SocialGraphGenerator(opt).Generate();
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph->num_edges(), 0u);
}

TEST(SocialGraphTest, MaxFolloweesRespected) {
  SocialGraphOptions opt = SmallOptions();
  opt.max_followees = 5;
  opt.out_degree_sigma = 2.0;  // fat tail that must be clipped
  auto graph = SocialGraphGenerator(opt).Generate();
  ASSERT_TRUE(graph.ok());
  // Out-degree can slightly exceed the cap through reciprocal edges, so
  // disable those for the strict check.
  opt.reciprocity = 0;
  auto strict = SocialGraphGenerator(opt).Generate();
  ASSERT_TRUE(strict.ok());
  for (size_t v = 0; v < strict->num_vertices(); ++v) {
    EXPECT_LE(strict->OutDegree(static_cast<VertexId>(v)), 5u);
  }
}

TEST(SocialGraphTest, InvalidOptionsRejected) {
  SocialGraphOptions opt = SmallOptions();
  opt.num_users = 0;
  EXPECT_TRUE(SocialGraphGenerator(opt).Generate().status().IsInvalidArgument());

  opt = SmallOptions();
  opt.mean_followees = -1;
  EXPECT_TRUE(SocialGraphGenerator(opt).Generate().status().IsInvalidArgument());

  // Non-finite means slip past a `<= 0` check; NaN would reach an
  // undefined double -> uint32_t cast in the degree draw.
  for (const double mean : {std::nan(""), HUGE_VAL}) {
    opt = SmallOptions();
    opt.mean_followees = mean;
    EXPECT_TRUE(
        SocialGraphGenerator(opt).Generate().status().IsInvalidArgument())
        << mean;
  }

  opt = SmallOptions();
  opt.reciprocity = 1.5;
  EXPECT_TRUE(SocialGraphGenerator(opt).Generate().status().IsInvalidArgument());

  opt = SmallOptions();
  opt.popularity_exponent = 0;
  EXPECT_TRUE(SocialGraphGenerator(opt).Generate().status().IsInvalidArgument());
}

TEST(SocialGraphTest, ConstantDegreeWithZeroSigma) {
  SocialGraphOptions opt = SmallOptions();
  opt.out_degree_sigma = 0;
  opt.reciprocity = 0;
  opt.mean_followees = 10;
  auto graph = SocialGraphGenerator(opt).Generate();
  ASSERT_TRUE(graph.ok());
  // Every user should have exactly 10 followees (popularity sampling may
  // rarely fall short when rejection quota is exhausted).
  size_t with_ten = 0;
  for (size_t v = 0; v < graph->num_vertices(); ++v) {
    if (graph->OutDegree(static_cast<VertexId>(v)) == 10) ++with_ten;
  }
  EXPECT_GT(with_ten, graph->num_vertices() * 95 / 100);
}

}  // namespace
}  // namespace magicrecs
