// Smoke test for the umbrella header: a downstream application's minimal
// embedding compiles and works against just this include.

#include "core/magicrecs.h"

#include <gtest/gtest.h>

namespace magicrecs {
namespace {

TEST(UmbrellaHeaderTest, MinimalEmbedding) {
  StaticGraphBuilder builder;
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());  // user 0 follows account 2
  ASSERT_TRUE(builder.AddEdge(0, 3).ok());  // user 0 follows account 3
  auto follow_graph = builder.Build();
  ASSERT_TRUE(follow_graph.ok());

  auto engine =
      MotifEngine::Create(*follow_graph, MakeDiamondSpec(2, Minutes(10)));
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::vector<Recommendation> recs;
  ASSERT_TRUE((*engine)->OnEdge(2, 9, Seconds(1), &recs).ok());
  ASSERT_TRUE((*engine)->OnEdge(3, 9, Seconds(2), &recs).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, 0u);
  EXPECT_EQ(recs[0].item, 9u);
}

TEST(UmbrellaHeaderTest, MotifFrameworkReachable) {
  auto spec = ParseMotif(
      "motif m { static A -> B; dynamic B -> C window 1m; trigger B -> C; "
      "emit A recommends C when count(B) >= 1; }");
  ASSERT_TRUE(spec.ok());
  auto plan = CompileMotif(*spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Explain().empty());
}

}  // namespace
}  // namespace magicrecs
