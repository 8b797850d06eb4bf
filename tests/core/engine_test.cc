#include "core/engine.h"

#include <gtest/gtest.h>

#include "gen/figure1.h"

namespace magicrecs {
namespace {

EngineOptions Defaults(uint32_t k) {
  EngineOptions opt;
  opt.detector.k = k;
  opt.detector.window = Minutes(10);
  return opt;
}

TEST(RecommenderEngineTest, Figure1EndToEnd) {
  auto engine = RecommenderEngine::Create(figure1::FollowGraph(), Defaults(2));
  ASSERT_TRUE(engine.ok()) << engine.status();
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*engine)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
  EXPECT_EQ(recs[0].item, figure1::kC2);
}

TEST(RecommenderEngineTest, BuildsFollowerIndexFromFollowGraph) {
  auto engine = RecommenderEngine::Create(figure1::FollowGraph(), Defaults(2));
  ASSERT_TRUE(engine.ok());
  const StaticGraph& s = (*engine)->follower_index();
  // followers(B1) = {A1, A2}
  const auto followers = s.Neighbors(figure1::kB1);
  ASSERT_EQ(followers.size(), 2u);
  EXPECT_EQ(followers[0], figure1::kA1);
  EXPECT_EQ(followers[1], figure1::kA2);
}

TEST(RecommenderEngineTest, RejectsInvalidOptions) {
  EngineOptions bad_k = Defaults(0);
  EXPECT_TRUE(RecommenderEngine::Create(figure1::FollowGraph(), bad_k)
                  .status()
                  .IsInvalidArgument());
  EngineOptions bad_window = Defaults(2);
  bad_window.detector.window = 0;
  EXPECT_TRUE(RecommenderEngine::Create(figure1::FollowGraph(), bad_window)
                  .status()
                  .IsInvalidArgument());
}

TEST(RecommenderEngineTest, MemoryAccountingNonZero) {
  auto engine = RecommenderEngine::Create(figure1::FollowGraph(), Defaults(2));
  ASSERT_TRUE(engine.ok());
  EXPECT_GT((*engine)->StaticMemoryUsage(), 0u);
  std::vector<Recommendation> recs;
  ASSERT_TRUE((*engine)->OnEdge(figure1::kB1, figure1::kC1, 1, &recs).ok());
  EXPECT_GT((*engine)->DynamicMemoryUsage(), 0u);
}

TEST(InfluencerCapTest, ZeroCapKeepsEverything) {
  const StaticGraph g = figure1::FollowGraph();
  auto capped = RecommenderEngine::ApplyInfluencerCap(g, 0);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(capped->num_edges(), g.num_edges());
}

TEST(InfluencerCapTest, CapKeepsMostPopularFollowees) {
  // A0 follows B1 (1 follower), B2 (2 followers), B3 (3 followers).
  StaticGraphBuilder builder(10);
  ASSERT_TRUE(builder.AddEdges({{0, 1}, {0, 2}, {0, 3}}).ok());
  ASSERT_TRUE(builder.AddEdges({{4, 2}, {4, 3}, {5, 3}}).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());

  auto capped = RecommenderEngine::ApplyInfluencerCap(*g, 2);
  ASSERT_TRUE(capped.ok()) << capped.status();
  // A0 keeps B3 (3 followers) and B2 (2 followers); drops B1.
  EXPECT_TRUE(capped->HasEdge(0, 3));
  EXPECT_TRUE(capped->HasEdge(0, 2));
  EXPECT_FALSE(capped->HasEdge(0, 1));
  // Users under the cap are untouched.
  EXPECT_EQ(capped->OutDegree(4), 2u);
  EXPECT_EQ(capped->OutDegree(5), 1u);
}

TEST(InfluencerCapTest, CapShrinksSMemory) {
  StaticGraphBuilder builder(100);
  for (VertexId b = 1; b < 60; ++b) ASSERT_TRUE(builder.AddEdge(0, b).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto capped = RecommenderEngine::ApplyInfluencerCap(*g, 10);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(capped->OutDegree(0), 10u);
  EXPECT_LT(capped->MemoryUsage(), g->MemoryUsage());
}

TEST(InfluencerCapTest, TieBreaksTowardSmallerId) {
  // B1 and B2 both have zero followers; cap 1 keeps the smaller id.
  StaticGraphBuilder builder(5);
  ASSERT_TRUE(builder.AddEdges({{0, 2}, {0, 1}}).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto capped = RecommenderEngine::ApplyInfluencerCap(*g, 1);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_TRUE(capped->HasEdge(0, 1));
  EXPECT_FALSE(capped->HasEdge(0, 2));
}

TEST(RecommenderEngineTest, CapChangesDetectionOutcome) {
  // A0 follows B1, B2 (B2 more popular via follower B3), plus popular B4,
  // B5. With cap=2 only {B4, B5} (most-followed) survive, so a motif via
  // B1+B2 is no longer visible for A0.
  StaticGraphBuilder builder(20);
  ASSERT_TRUE(builder.AddEdges({{0, 1}, {0, 2}, {0, 4}, {0, 5}}).ok());
  // Give B4 and B5 many followers.
  for (VertexId a = 10; a < 16; ++a) {
    ASSERT_TRUE(builder.AddEdge(a, 4).ok());
    ASSERT_TRUE(builder.AddEdge(a, 5).ok());
  }
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());

  EngineOptions capped_opt = Defaults(2);
  capped_opt.max_influencers_per_user = 2;
  auto capped_engine = RecommenderEngine::Create(*g, capped_opt);
  ASSERT_TRUE(capped_engine.ok());

  auto full_engine = RecommenderEngine::Create(*g, Defaults(2));
  ASSERT_TRUE(full_engine.ok());

  std::vector<Recommendation> capped_recs, full_recs;
  ASSERT_TRUE((*capped_engine)->OnEdge(1, 9, 1, &capped_recs).ok());
  ASSERT_TRUE((*capped_engine)->OnEdge(2, 9, 2, &capped_recs).ok());
  ASSERT_TRUE((*full_engine)->OnEdge(1, 9, 1, &full_recs).ok());
  ASSERT_TRUE((*full_engine)->OnEdge(2, 9, 2, &full_recs).ok());

  EXPECT_EQ(full_recs.size(), 1u);   // motif via B1+B2 found
  EXPECT_TRUE(capped_recs.empty());  // pruned away by the influencer cap
}

}  // namespace
}  // namespace magicrecs
