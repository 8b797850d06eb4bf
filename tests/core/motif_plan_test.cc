#include "core/motif_plan.h"

#include <gtest/gtest.h>

#include "util/str_format.h"

namespace magicrecs {
namespace {

TEST(MotifPlanTest, DiamondCompilesToTheExpectedPipeline) {
  auto plan = CompileMotif(MakeDiamondSpec(3, Minutes(10)));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->spec.name, "diamond");
  EXPECT_EQ(plan->window, Minutes(10));
  EXPECT_EQ(plan->action, MotifAction::kAny);
  EXPECT_EQ(plan->k, 3u);
  EXPECT_EQ(plan->witness_cap, 64u);
  EXPECT_EQ(plan->lookup, StaticLookup::kFollowersOfActor);
  EXPECT_EQ(plan->algorithm, ThresholdAlgorithm::kAuto);
  EXPECT_TRUE(plan->exclude_existing);
  EXPECT_EQ(plan->reported_witness_cap, 8u);
}

TEST(MotifPlanTest, ReversedStaticEdgeUsesForwardIndex) {
  MotifSpec spec = MakeDiamondSpec(2, Minutes(1));
  // static B -> A: recommend to the accounts the actors follow.
  spec.edges[0] = MotifEdgeSpec{"B", "A", MotifEdgeKind::kStatic, 0,
                                MotifAction::kAny};
  auto plan = CompileMotif(spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->lookup, StaticLookup::kFolloweesOfActor);
}

TEST(MotifPlanTest, MotifOptionsAreBakedIn) {
  MotifOptions opts;
  opts.max_witnesses_per_query = 7;
  opts.max_reported_witnesses = 2;
  opts.exclude_existing_followers = false;
  opts.algorithm = ThresholdAlgorithm::kHeapMerge;
  auto plan = CompileMotif(MakeDiamondSpec(2, Minutes(1)), opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->witness_cap, 7u);
  EXPECT_EQ(plan->algorithm, ThresholdAlgorithm::kHeapMerge);
  EXPECT_FALSE(plan->exclude_existing);
  EXPECT_EQ(plan->reported_witness_cap, 2u);
}

TEST(MotifPlanTest, ZeroWitnessCapDropsTheCapOp) {
  MotifOptions opts;
  opts.max_witnesses_per_query = 0;
  auto plan = CompileMotif(MakeDiamondSpec(2, Minutes(1)), opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->witness_cap, 0u);
  EXPECT_NE(plan->Explain().find("no cap"), std::string::npos);
}

TEST(MotifPlanTest, ActionFilterPropagates) {
  auto plan = CompileMotif(
      MakeCoActionSpec(2, Minutes(1), MotifAction::kFavorite));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->action, MotifAction::kFavorite);
}

TEST(MotifPlanTest, ExplainListsEveryOp) {
  auto plan = CompileMotif(MakeDiamondSpec(3, Minutes(10)));
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->Explain();
  EXPECT_NE(text.find("diamond"), std::string::npos);
  EXPECT_NE(text.find("k=3"), std::string::npos);
  for (size_t stage = 0; stage < kNumPlanStages; ++stage) {
    const std::string name(PlanStageName(static_cast<PlanStage>(stage)));
    EXPECT_NE(text.find(StrFormat("%zu. %s ", stage + 1, name.c_str())),
              std::string::npos)
        << name << " missing from:\n"
        << text;
  }
}

TEST(MotifPlanTest, RejectsCountOverNonTriggerSource) {
  MotifSpec spec = MakeDiamondSpec(2, Minutes(1));
  spec.counted = "A";
  auto plan = CompileMotif(spec);
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsUnimplemented());
}

TEST(MotifPlanTest, RejectsEmitItemNotTriggerTarget) {
  MotifSpec spec = MakeDiamondSpec(2, Minutes(1));
  spec.emit_item = "B";
  EXPECT_TRUE(CompileMotif(spec).status().IsUnimplemented());
}

TEST(MotifPlanTest, RejectsDisconnectedEmitUser) {
  MotifSpec spec = MakeDiamondSpec(2, Minutes(1));
  spec.emit_user = "Z";
  EXPECT_TRUE(CompileMotif(spec).status().IsUnimplemented());
}

TEST(MotifPlanTest, RejectsMultipleDynamicEdges) {
  MotifSpec spec = MakeDiamondSpec(2, Minutes(1));
  spec.edges.push_back(MotifEdgeSpec{"C", "D", MotifEdgeKind::kDynamic,
                                     Minutes(1), MotifAction::kAny});
  EXPECT_TRUE(CompileMotif(spec).status().IsUnimplemented());
}

TEST(MotifPlanTest, RejectsInvalidSpecWithValidationError) {
  MotifSpec spec = MakeDiamondSpec(2, Minutes(1));
  spec.threshold = 0;
  EXPECT_TRUE(CompileMotif(spec).status().IsInvalidArgument());
}

}  // namespace
}  // namespace magicrecs
