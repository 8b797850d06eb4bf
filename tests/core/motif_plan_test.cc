#include "core/motif_plan.h"

#include <gtest/gtest.h>

namespace magicrecs {
namespace {

TEST(MotifPlanTest, DiamondCompilesToTheExpectedPipeline) {
  auto plan = CompileMotif(MakeDiamondSpec(3, Minutes(10)));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->ops.size(), 8u);
  EXPECT_EQ(plan->ops[0].kind, PlanOpKind::kInsertDynamic);
  EXPECT_EQ(plan->ops[1].kind, PlanOpKind::kCollectActors);
  EXPECT_EQ(plan->ops[2].kind, PlanOpKind::kCheckThreshold);
  EXPECT_EQ(plan->ops[3].kind, PlanOpKind::kCapWitnesses);
  EXPECT_EQ(plan->ops[4].kind, PlanOpKind::kGatherStaticLists);
  EXPECT_EQ(plan->ops[5].kind, PlanOpKind::kThresholdIntersect);
  EXPECT_EQ(plan->ops[6].kind, PlanOpKind::kFilterCandidates);
  EXPECT_EQ(plan->ops[7].kind, PlanOpKind::kEmit);
  EXPECT_EQ(plan->ops[2].k, 3u);
  EXPECT_EQ(plan->ops[0].window, Minutes(10));
  EXPECT_EQ(plan->ops[4].lookup, StaticLookup::kFollowersOfActor);
}

TEST(MotifPlanTest, ReversedStaticEdgeUsesForwardIndex) {
  MotifSpec spec = MakeDiamondSpec(2, Minutes(1));
  // static B -> A: recommend to the accounts the actors follow.
  spec.edges[0] = MotifEdgeSpec{"B", "A", MotifEdgeKind::kStatic, 0,
                                MotifAction::kAny};
  auto plan = CompileMotif(spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const PlanOp& op : plan->ops) {
    if (op.kind == PlanOpKind::kGatherStaticLists) {
      EXPECT_EQ(op.lookup, StaticLookup::kFolloweesOfActor);
    }
  }
}

TEST(MotifPlanTest, MotifOptionsAreBakedIn) {
  MotifOptions opts;
  opts.max_witnesses_per_query = 7;
  opts.max_reported_witnesses = 2;
  opts.exclude_existing_followers = false;
  opts.algorithm = ThresholdAlgorithm::kHeapMerge;
  auto plan = CompileMotif(MakeDiamondSpec(2, Minutes(1)), opts);
  ASSERT_TRUE(plan.ok());
  bool saw_cap = false;
  for (const PlanOp& op : plan->ops) {
    switch (op.kind) {
      case PlanOpKind::kCapWitnesses:
        saw_cap = true;
        EXPECT_EQ(op.cap, 7u);
        break;
      case PlanOpKind::kThresholdIntersect:
        EXPECT_EQ(op.algorithm, ThresholdAlgorithm::kHeapMerge);
        break;
      case PlanOpKind::kFilterCandidates:
        EXPECT_FALSE(op.exclude_existing);
        break;
      case PlanOpKind::kEmit:
        EXPECT_EQ(op.cap, 2u);
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_cap);
}

TEST(MotifPlanTest, ZeroWitnessCapDropsTheCapOp) {
  MotifOptions opts;
  opts.max_witnesses_per_query = 0;
  auto plan = CompileMotif(MakeDiamondSpec(2, Minutes(1)), opts);
  ASSERT_TRUE(plan.ok());
  for (const PlanOp& op : plan->ops) {
    EXPECT_NE(op.kind, PlanOpKind::kCapWitnesses);
  }
}

TEST(MotifPlanTest, ActionFilterPropagates) {
  auto plan = CompileMotif(
      MakeCoActionSpec(2, Minutes(1), MotifAction::kFavorite));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->ops[0].action, MotifAction::kFavorite);
}

TEST(MotifPlanTest, ExplainListsEveryOp) {
  auto plan = CompileMotif(MakeDiamondSpec(3, Minutes(10)));
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->Explain();
  EXPECT_NE(text.find("diamond"), std::string::npos);
  EXPECT_NE(text.find("INSERT_DYNAMIC"), std::string::npos);
  EXPECT_NE(text.find("THRESHOLD_INTERSECT"), std::string::npos);
  EXPECT_NE(text.find("EMIT"), std::string::npos);
  EXPECT_NE(text.find("k=3"), std::string::npos);
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
