#include "core/motif_engine.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "util/random.h"

namespace magicrecs {
namespace {

DiamondOptions Defaults(uint32_t k, Duration window = Minutes(10)) {
  DiamondOptions opt;
  opt.k = k;
  opt.window = window;
  return opt;
}

/// The diamond engine over `follow_graph` (edges A -> B, "A follows B").
std::unique_ptr<MotifEngine> Diamond(const StaticGraph& follow_graph,
                                     const DiamondOptions& options) {
  auto engine = MotifEngine::Create(
      follow_graph, MakeDiamondSpec(options.k, options.window), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

/// The diamond's window half alone: D, with no S.
WindowStage DiamondWindow(const DiamondOptions& options) {
  const auto plan = CompileDiamond(options);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return WindowStage(*plan, options);
}

/// Builds a follow graph over `num_vertices` from (follower, followee) pairs.
StaticGraph Follows(size_t num_vertices, const std::vector<Edge>& edges) {
  StaticGraphBuilder builder(num_vertices);
  EXPECT_TRUE(builder.AddEdges(edges).ok());
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

// --- The diamond on the paper's Figure 1 -------------------------------------

TEST(MotifEngineTest, PaperWalkthroughRecommendsC2ToA2) {
  // "when the edge B2 -> C2 is created ... we want to push C2 to A2" (k=2).
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(2));
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE(engine->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
  EXPECT_EQ(recs[0].item, figure1::kC2);
  EXPECT_EQ(recs[0].witness_count, 2u);
  EXPECT_EQ(recs[0].witnesses,
            (std::vector<VertexId>{figure1::kB1, figure1::kB2}));
  EXPECT_EQ(recs[0].trigger, figure1::kB2);
}

TEST(MotifEngineTest, NoRecommendationBeforeTrigger) {
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(2));
  std::vector<Recommendation> recs;
  const auto edges = figure1::DynamicEdges(0);
  for (size_t i = 0; i + 1 < edges.size(); ++i) {  // all but the trigger
    ASSERT_TRUE(
        engine->OnEdge(edges[i].src, edges[i].dst, edges[i].created_at, &recs)
            .ok());
  }
  EXPECT_TRUE(recs.empty());
}

TEST(MotifEngineTest, ProductionKThreeNeedsAThirdWitness) {
  // With k=3 the Figure 1 fragment cannot produce a recommendation.
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(3));
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE(engine->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  EXPECT_TRUE(recs.empty());
}

TEST(MotifEngineTest, ExpiredWindowSuppressesTheMotif) {
  // If B1 -> C2 happened an hour before B2 -> C2, tau = 10min excludes it.
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(figure1::kB1, figure1::kC2, 0, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(figure1::kB2, figure1::kC2, Hours(1), &recs).ok());
  EXPECT_TRUE(recs.empty());
}

TEST(MotifEngineTest, WindowBoundaryInclusive) {
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(figure1::kB1, figure1::kC2, 1, &recs).ok());
  // Exactly window-1 later: still inside (t - window, t].
  ASSERT_TRUE(
      engine->OnEdge(figure1::kB2, figure1::kC2, Minutes(10), &recs).ok());
  EXPECT_EQ(recs.size(), 1u);
}

TEST(MotifEngineTest, RepeatFollowByTheSameBDoesNotCount) {
  // B1 following C2 twice is one distinct witness, not two.
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(figure1::kB1, figure1::kC2, 1, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(figure1::kB1, figure1::kC2, 2, &recs).ok());
  EXPECT_TRUE(recs.empty());
}

TEST(MotifEngineTest, StatsAreAccurate) {
  // Events are timed as a cluster times them, by sequence: of the four,
  // only sequence 0 is a timing sample, and it stops below k, so no query
  // half is timed.
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(2));
  std::vector<Recommendation> recs;
  uint64_t sequence = 0;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE(engine
                    ->OnEdge(e.src, e.dst, e.created_at, &recs,
                             MotifAction::kFollow, IsTimingSample(sequence++))
                    .ok());
  }
  const MotifEngineStats& stats = engine->stats();
  EXPECT_EQ(stats.events, 4u);
  EXPECT_EQ(stats.threshold_queries, 1u);
  EXPECT_EQ(stats.raw_candidates, 1u);
  EXPECT_EQ(stats.recommendations, 1u);
  EXPECT_EQ(stats.query_micros.Count(), 0u);
  EXPECT_EQ(stats.intersection_sizes.Count(), 1u);
  EXPECT_EQ(stats.intersection_sizes.Max(), 2);
}

// --- Sampled timing ----------------------------------------------------------

/// Timed samples of `stage` recorded by a MotifEngine or one of its halves.
template <typename Engine>
size_t StageCount(const Engine& engine, PlanStage stage) {
  return engine.stats().stage_nanos[static_cast<size_t>(stage)].Count();
}

TEST(MotifEngineTest, TimingSampleIsOneSequenceInThePeriod) {
  EXPECT_TRUE(IsTimingSample(0));
  EXPECT_FALSE(IsTimingSample(1));
  EXPECT_FALSE(IsTimingSample(kTimingSamplePeriod - 1));
  EXPECT_TRUE(IsTimingSample(kTimingSamplePeriod));
  EXPECT_TRUE(IsTimingSample(7 * kTimingSamplePeriod));
  EXPECT_FALSE(IsTimingSample(7 * kTimingSamplePeriod + 1));
}

TEST(MotifEngineTest, TimedEventsRecordEveryStageTheyReach) {
  // Figure 1 at k=2: all four events pass index-insert and index-window;
  // only the trigger B2 -> C2 queries S, intersects and emits.
  const auto timed = Diamond(figure1::FollowGraph(), Defaults(2));
  const auto untimed = Diamond(figure1::FollowGraph(), Defaults(2));
  std::vector<Recommendation> timed_recs, untimed_recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE(timed
                    ->OnEdge(e.src, e.dst, e.created_at, &timed_recs,
                             MotifAction::kFollow, /*timed=*/true)
                    .ok());
    ASSERT_TRUE(
        untimed->OnEdge(e.src, e.dst, e.created_at, &untimed_recs).ok());
  }
  EXPECT_EQ(timed_recs, untimed_recs);
  EXPECT_EQ(timed->stats().query_micros.Count(), 1u);
  EXPECT_EQ(StageCount(*timed, PlanStage::kIndexInsert), 4u);
  EXPECT_EQ(StageCount(*timed, PlanStage::kIndexWindow), 4u);
  EXPECT_EQ(StageCount(*timed, PlanStage::kSFetch), 1u);
  EXPECT_EQ(StageCount(*timed, PlanStage::kIntersect), 1u);
  EXPECT_EQ(StageCount(*timed, PlanStage::kEmit), 1u);
  // The query time is the sum of the query half's stages, from the same
  // clock reads, so it cannot exceed the sum of all stages.
  double stage_sum_ns = 0;
  for (const Histogram& h : timed->stats().stage_nanos) {
    stage_sum_ns += h.Mean() * static_cast<double>(h.Count());
  }
  const Histogram& query = timed->stats().query_micros;
  EXPECT_LE(query.Mean() * static_cast<double>(query.Count()),
            stage_sum_ns / 1000 + 1e-9);

  // Direct callers do not time by default.
  EXPECT_EQ(untimed->stats().query_micros.Count(), 0u);
  for (size_t stage = 0; stage < kNumPlanStages; ++stage) {
    EXPECT_EQ(untimed->stats().stage_nanos[stage].Count(), 0u)
        << PlanStageName(static_cast<PlanStage>(stage));
  }
}

TEST(MotifEngineTest, TimedIngestRecordsOnlyTheInsert) {
  WindowStage window = DiamondWindow(Defaults(2));
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE(window
                    .Ingest(e.src, e.dst, e.created_at, MotifAction::kFollow,
                            /*timed=*/true)
                    .ok());
  }
  EXPECT_EQ(StageCount(window, PlanStage::kIndexInsert), 4u);
  EXPECT_EQ(StageCount(window, PlanStage::kIndexWindow), 0u);
  EXPECT_EQ(window.stats().query_micros.Count(), 0u);
}

TEST(MotifEngineTest, FilteredActionIsNotTimed) {
  auto engine = MotifEngine::Create(
      figure1::FollowGraph(),
      MakeCoActionSpec(2, Minutes(10), MotifAction::kRetweet));
  ASSERT_TRUE(engine.ok());
  std::vector<Recommendation> recs;
  ASSERT_TRUE((*engine)
                  ->OnEdge(figure1::kB1, figure1::kC2, 1, &recs,
                           MotifAction::kFollow, /*timed=*/true)
                  .ok());
  EXPECT_EQ((*engine)->stats().filtered_by_action, 1u);
  EXPECT_EQ((*engine)->stats().query_micros.Count(), 0u);
  EXPECT_EQ(StageCount(**engine, PlanStage::kIndexInsert), 0u);

  WindowStage replay((*engine)->plan(), MotifOptions{});
  ASSERT_TRUE(replay
                  .Ingest(figure1::kB1, figure1::kC2, 1, MotifAction::kFollow,
                          /*timed=*/true)
                  .ok());
  EXPECT_EQ(replay.stats().filtered_by_action, 1u);
  EXPECT_EQ(StageCount(replay, PlanStage::kIndexInsert), 0u);
}

TEST(MotifEngineTest, TimedEventWithTooFewListsStopsBeforeIntersect) {
  // k=2 over a graph where only A2 -> B2 exists: C2's two in-window actors
  // pass the k check, but B1 has no followers, so one list reaches the
  // intersection and the query stops after s-fetch.
  const auto engine = Diamond(
      Follows(figure1::kNumVertices, {{figure1::kA2, figure1::kB2}}),
      Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(figure1::kB1, figure1::kC2, 1, &recs).ok());
  ASSERT_TRUE(engine
                  ->OnEdge(figure1::kB2, figure1::kC2, 2, &recs,
                           MotifAction::kFollow, /*timed=*/true)
                  .ok());
  EXPECT_TRUE(recs.empty());
  EXPECT_EQ(engine->stats().threshold_queries, 1u);
  EXPECT_EQ(StageCount(*engine, PlanStage::kIndexInsert), 1u);
  EXPECT_EQ(StageCount(*engine, PlanStage::kIndexWindow), 1u);
  EXPECT_EQ(StageCount(*engine, PlanStage::kSFetch), 1u);
  EXPECT_EQ(engine->stats().query_micros.Count(), 1u);
  EXPECT_EQ(StageCount(*engine, PlanStage::kIntersect), 0u);
  EXPECT_EQ(StageCount(*engine, PlanStage::kEmit), 0u);
}

TEST(MotifEngineTest, StageNamesAreTheLedgerVocabulary) {
  EXPECT_EQ(PlanStageName(PlanStage::kIndexInsert), "index-insert");
  EXPECT_EQ(PlanStageName(PlanStage::kIndexWindow), "index-window");
  EXPECT_EQ(PlanStageName(PlanStage::kSFetch), "s-fetch");
  EXPECT_EQ(PlanStageName(PlanStage::kIntersect), "intersect");
  EXPECT_EQ(PlanStageName(PlanStage::kEmit), "emit");
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(2));
  const std::string text = engine->plan().Explain();
  for (size_t stage = 0; stage < kNumPlanStages; ++stage) {
    EXPECT_NE(text.find(PlanStageName(static_cast<PlanStage>(stage))),
              std::string::npos)
        << text;
  }
}

// --- Exclusion filters -------------------------------------------------------

TEST(MotifEngineTest, ExcludesExistingFollower) {
  // A0 follows B1, B2 and already follows C9: no recommendation for A0.
  const auto engine =
      Diamond(Follows(10, {{0, 1}, {0, 2}, {0, 9}}), Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(1, 9, 1, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(2, 9, 2, &recs).ok());
  EXPECT_TRUE(recs.empty());
  EXPECT_EQ(engine->stats().suppressed_existing, 1u);
}

TEST(MotifEngineTest, ExistingFollowerIncludedWhenDisabled) {
  DiamondOptions opt = Defaults(2);
  opt.exclude_existing_followers = false;
  const auto engine = Diamond(Follows(10, {{0, 1}, {0, 2}, {0, 9}}), opt);
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(1, 9, 1, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(2, 9, 2, &recs).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, 0u);
  EXPECT_EQ(engine->stats().suppressed_existing, 0u);
}

TEST(MotifEngineTest, ExcludesDynamicFollower) {
  // A0 follows B1 and B2; A0 itself followed C9 two seconds earlier on the
  // stream (not in S). Still excluded.
  const auto engine = Diamond(Follows(10, {{0, 1}, {0, 2}}), Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(0, 9, Seconds(1), &recs).ok());  // A0 -> C9
  ASSERT_TRUE(engine->OnEdge(1, 9, Seconds(2), &recs).ok());
  ASSERT_TRUE(engine->OnEdge(2, 9, Seconds(3), &recs).ok());
  EXPECT_TRUE(recs.empty());
  EXPECT_EQ(engine->stats().suppressed_existing, 1u);
}

TEST(MotifEngineTest, SelfRecommendationSuppressed) {
  // C9 follows B1 and B2; B1, B2 follow C9 back: C9 must not be recommended
  // to itself.
  const auto engine = Diamond(Follows(10, {{9, 1}, {9, 2}}), Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(1, 9, 1, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(2, 9, 2, &recs).ok());
  EXPECT_TRUE(recs.empty());
  EXPECT_EQ(engine->stats().suppressed_self, 1u);
}

// --- Fan-out, re-triggering and the witness caps -----------------------------

TEST(MotifEngineTest, MultipleUsersRecommendedAtOnce) {
  // A0..A4 all follow B10 and B11; both follow C20 within the window.
  std::vector<Edge> follows;
  for (VertexId a = 0; a < 5; ++a) {
    follows.push_back({a, 10});
    follows.push_back({a, 11});
  }
  const auto engine = Diamond(Follows(30, follows), Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(10, 20, 1, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(11, 20, 2, &recs).ok());
  ASSERT_EQ(recs.size(), 5u);
  for (const auto& rec : recs) EXPECT_EQ(rec.item, 20u);
}

TEST(MotifEngineTest, LaterWitnessesRetrigger) {
  // After the first recommendation at k=2, a third B triggers another
  // recommendation with witness_count=3 (downstream dedup collapses these).
  const auto engine =
      Diamond(Follows(30, {{0, 10}, {0, 11}, {0, 12}}), Defaults(2));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(10, 20, 1, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(11, 20, 2, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(12, 20, 3, &recs).ok());
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].witness_count, 2u);
  EXPECT_EQ(recs[1].witness_count, 3u);
}

TEST(MotifEngineTest, WitnessReportingCapKeepsCountExact) {
  std::vector<Edge> follows;
  for (VertexId b = 10; b < 16; ++b) follows.push_back({0, b});
  DiamondOptions opt = Defaults(6);
  opt.max_reported_witnesses = 2;
  const auto engine = Diamond(Follows(30, follows), opt);
  std::vector<Recommendation> recs;
  for (VertexId b = 10; b < 16; ++b) {
    ASSERT_TRUE(engine->OnEdge(b, 20, b, &recs).ok());
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].witness_count, 6u);
  EXPECT_EQ(recs[0].witnesses.size(), 2u);

  // The reported witnesses are the first in gather order, which is source
  // id order: actors arriving in descending id order at rising times still
  // report the two smallest ids, not the two oldest or newest actions.
  const auto reversed = Diamond(Follows(30, follows), opt);
  recs.clear();
  for (VertexId b = 15; b >= 10; --b) {
    ASSERT_TRUE(reversed->OnEdge(b, 20, 16 - b, &recs).ok());
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].witness_count, 6u);
  EXPECT_EQ(recs[0].witnesses, (std::vector<VertexId>{10, 11}));
}

TEST(MotifEngineTest, WitnessQueryCapBoundsWork) {
  // 100 actors on a hot target, cap at 10: the query still works with the
  // 10 most recent.
  std::vector<Edge> follows;
  for (VertexId b = 50; b < 150; ++b) follows.push_back({0, b});
  DiamondOptions opt = Defaults(3);
  opt.max_witnesses_per_query = 10;
  const auto engine = Diamond(Follows(200, follows), opt);
  std::vector<Recommendation> recs;
  for (VertexId b = 50; b < 150; ++b) {
    ASSERT_TRUE(engine->OnEdge(b, 190, Seconds(b), &recs).ok());
  }
  EXPECT_FALSE(recs.empty());
  for (const auto& rec : recs) EXPECT_LE(rec.witness_count, 10u);
  EXPECT_EQ(engine->stats().intersection_sizes.Max(), 10);
}

TEST(MotifEngineTest, KOneDegeneratesToTriangleClosure) {
  const auto engine = Diamond(Follows(10, {{0, 1}}), Defaults(1));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(1, 5, 1, &recs).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, 0u);
  EXPECT_EQ(recs[0].item, 5u);
}

// --- Option semantics on D ---------------------------------------------------

TEST(MotifEngineTest, InvalidEdgeRejected) {
  const auto engine = Diamond(StaticGraph(), Defaults(2));
  std::vector<Recommendation> recs;
  EXPECT_TRUE(engine->OnEdge(kInvalidVertex, 1, 0, &recs).IsInvalidArgument());
}

TEST(MotifEngineTest, StrictTimeOrderPropagates) {
  DiamondOptions opt = Defaults(2);
  opt.strict_time_order = true;
  const auto engine = Diamond(StaticGraph(), opt);
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(1, 2, Seconds(10), &recs).ok());
  EXPECT_TRUE(engine->OnEdge(3, 2, Seconds(5), &recs).IsFailedPrecondition());
}

TEST(MotifEngineTest, RetentionCapPropagates) {
  // One retained in-edge per target: B1 -> C2 is evicted by B2 -> C2, so the
  // trigger finds a single witness.
  DiamondOptions opt = Defaults(2);
  opt.max_in_edges_per_vertex = 1;
  const auto engine = Diamond(figure1::FollowGraph(), opt);
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE(engine->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  EXPECT_TRUE(recs.empty());
  EXPECT_EQ(engine->dynamic_index().stats().evicted, 1u);
}

// --- Serving hooks: ingest-only, split halves, prune, shared index ----------

TEST(MotifEngineTest, IngestSkipsQueryWork) {
  WindowStage window = DiamondWindow(Defaults(2));
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE(window.Ingest(e.src, e.dst, e.created_at).ok());
  }
  EXPECT_EQ(window.stats().events, 4u);
  EXPECT_EQ(window.stats().threshold_queries, 0u);
  EXPECT_EQ(window.stats().recommendations, 0u);
  EXPECT_EQ(window.stats().query_micros.Count(), 0u);
}

// The window half holds D and no S; the query half, S and no D.
template <typename Stage>
concept HoldsD = requires(const Stage& stage) { stage.dynamic_index(); };
template <typename Stage>
concept HoldsS = requires(const Stage& stage) { stage.static_index(); };
static_assert(HoldsD<WindowStage> && !HoldsS<WindowStage>);
static_assert(HoldsS<QueryStage> && !HoldsD<QueryStage>);

TEST(MotifEngineTest, QueryHalfRunsOverAnotherEnginesWindow) {
  // A cluster windows each event once and queries it on one replica per
  // partition: one WindowStage feeds QueryStages that share one shard.
  const auto plan = CompileDiamond(Defaults(2));
  ASSERT_TRUE(plan.ok()) << plan.status();
  const auto shared =
      std::make_shared<const StaticGraph>(figure1::FollowGraph().Transpose());
  WindowStage window(*plan, Defaults(2));
  QueryStage r0(*plan, shared, Defaults(2));
  QueryStage r1(*plan, shared, Defaults(2));
  EXPECT_EQ(&r0.static_index(), shared.get());
  EXPECT_EQ(&r1.static_index(), shared.get());

  std::vector<Recommendation> recs;
  std::vector<VertexId> actors;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    actors.clear();
    ASSERT_TRUE(window.Window(e.src, e.dst, e.created_at, &actors).ok());
    r0.Query(e.src, e.dst, e.created_at, actors, &recs);
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
  // The window half counts the events; the query half, the queries.
  EXPECT_EQ(window.stats().events, 4u);
  EXPECT_EQ(window.stats().threshold_queries, 0u);
  EXPECT_EQ(r0.stats().events, 0u);
  EXPECT_EQ(r0.stats().threshold_queries, 1u);
  // The other replica ran nothing: its counters are its own.
  EXPECT_EQ(r1.stats().threshold_queries, 0u);

  // Given the trigger's actors, the other replica answers the same over the
  // shared shard.
  const TimestampedEdge trigger = figure1::TriggerEdge(0);
  std::vector<Recommendation> again;
  r1.Query(trigger.src, trigger.dst, trigger.created_at, actors, &again);
  EXPECT_EQ(again, recs);
  EXPECT_EQ(r0.stats().threshold_queries, 1u);
  EXPECT_EQ(r1.stats().threshold_queries, 1u);
}

TEST(MotifEngineTest, DynamicStateRoundTripsThroughEncoding) {
  WindowStage source = DiamondWindow(Defaults(2));
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE(source.Ingest(e.src, e.dst, e.created_at).ok());
  }
  std::string bytes;
  source.dynamic_index().EncodeTo(&bytes);

  WindowStage restored = DiamondWindow(Defaults(2));
  ASSERT_TRUE(restored
                  .Restore(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size())
                  .ok());
  std::string again;
  restored.dynamic_index().EncodeTo(&again);
  EXPECT_EQ(again, bytes);
  restored.Clear();
  EXPECT_EQ(restored.dynamic_index().stats().current_edges, 0u);
}

TEST(MotifEngineTest, LaterEventReleasesExpiredState) {
  const auto engine = Diamond(figure1::FollowGraph(), Defaults(2, Seconds(10)));
  std::vector<Recommendation> recs;
  ASSERT_TRUE(engine->OnEdge(figure1::kB1, figure1::kC2, 0, &recs).ok());
  ASSERT_TRUE(engine->OnEdge(figure1::kB2, figure1::kC1, 0, &recs).ok());
  EXPECT_EQ(engine->dynamic_index().stats().tracked_vertices, 2u);
  // An hour later, one edge to a third item expires both earlier items'
  // state: no maintenance call is needed.
  ASSERT_TRUE(
      engine->OnEdge(figure1::kB1, figure1::kC3, Hours(1), &recs).ok());
  EXPECT_EQ(engine->dynamic_index().stats().current_edges, 1u);
  EXPECT_EQ(engine->dynamic_index().stats().tracked_vertices, 1u);
  EXPECT_EQ(engine->dynamic_index().stats().pruned, 2u);
}

TEST(MotifEngineTest, DiamondOverABorrowedIndexSharesIt) {
  auto follower_index =
      std::make_shared<const StaticGraph>(figure1::FollowGraph().Transpose());
  auto a = MotifEngine::CreateDiamond(follower_index, Defaults(2));
  auto b = MotifEngine::CreateDiamond(follower_index, Defaults(2));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(&(*a)->static_index(), follower_index.get());
  EXPECT_EQ(&(*b)->static_index(), follower_index.get());

  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*a)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ((*b)->stats().events, 0u);  // D stays per engine

  EXPECT_TRUE(MotifEngine::CreateDiamond(nullptr, Defaults(2))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MotifEngine::CreateDiamond(follower_index, Defaults(0))
                  .status()
                  .IsInvalidArgument());
}

// --- Other motifs through the same executor ----------------------------------

TEST(MotifEngineTest, TriangleClosureFiresOnFirstEdge) {
  auto engine = MotifEngine::Create(figure1::FollowGraph(),
                                    MakeTriangleClosureSpec(Minutes(10)));
  ASSERT_TRUE(engine.ok());
  std::vector<Recommendation> recs;
  // B1 -> C1: followers of B1 (A1, A2) each get C1 immediately.
  ASSERT_TRUE((*engine)->OnEdge(figure1::kB1, figure1::kC1, 1, &recs).ok());
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].user, figure1::kA1);
  EXPECT_EQ(recs[1].user, figure1::kA2);
}

TEST(MotifEngineTest, ActionFilterSkipsOtherActions) {
  auto engine = MotifEngine::Create(
      figure1::FollowGraph(),
      MakeCoActionSpec(2, Minutes(10), MotifAction::kRetweet));
  ASSERT_TRUE(engine.ok());
  std::vector<Recommendation> recs;
  // Same shape as Figure 1, but delivered as follows: filtered out entirely.
  for (const TimestampedEdge& e : figure1::DynamicEdges(0)) {
    ASSERT_TRUE((*engine)
                    ->OnEdge(e.src, e.dst, e.created_at, &recs,
                             MotifAction::kFollow)
                    .ok());
  }
  EXPECT_TRUE(recs.empty());
  EXPECT_EQ((*engine)->stats().filtered_by_action, 4u);

  // Ingest-only follows are filtered the same way, so WAL replay stays in
  // step.
  WindowStage replay((*engine)->plan(), MotifOptions{});
  ASSERT_TRUE(replay.Ingest(figure1::kB1, figure1::kC2, 1).ok());
  EXPECT_EQ(replay.stats().filtered_by_action, 1u);
  EXPECT_EQ(replay.stats().events, 0u);

  // Replayed as retweets, the motif fires.
  for (const TimestampedEdge& e : figure1::DynamicEdges(Hours(1))) {
    ASSERT_TRUE((*engine)
                    ->OnEdge(e.src, e.dst, e.created_at, &recs,
                             MotifAction::kRetweet)
                    .ok());
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, figure1::kA2);
}

TEST(MotifEngineTest, ReversedStaticEdgeRecommendsToFollowees) {
  // Pattern: static B -> A (the actor follows A); dynamic B -> C. When >= 1
  // actors who follow A act on C, recommend C to A. Build: B5 follows A0.
  MotifSpec spec = MakeDiamondSpec(1, Minutes(10));
  spec.name = "followee_push";
  spec.edges[0] = MotifEdgeSpec{"B", "A", MotifEdgeKind::kStatic, 0,
                                MotifAction::kAny};
  auto engine = MotifEngine::Create(Follows(10, {{5, 0}}), spec);
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::vector<Recommendation> recs;
  ASSERT_TRUE((*engine)->OnEdge(5, 7, 1, &recs).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].user, 0u);  // A0, whom B5 follows
  EXPECT_EQ(recs[0].item, 7u);
}

TEST(MotifEngineTest, RejectsUnplannableSpec) {
  MotifSpec spec = MakeDiamondSpec(2, Minutes(1));
  spec.emit_user = "Q";
  auto engine = MotifEngine::Create(figure1::FollowGraph(), spec);
  EXPECT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsUnimplemented());
}

TEST(MotifEngineTest, PlanIsExposedForExplain) {
  auto engine = MotifEngine::Create(figure1::FollowGraph(),
                                    MakeDiamondSpec(3, Minutes(10)));
  ASSERT_TRUE(engine.ok());
  EXPECT_NE((*engine)->plan().Explain().find("diamond"), std::string::npos);
}

// --- Differential: the one-pass emit against the per-match emit --------------
//
// The emit stage walks the gathered lists once per query. The reference
// below runs the same diamond pipeline with the direct per-match emit: each
// kept match binary-searches every gathered list in gather order and stops
// at the reporting cap. Records must match exactly, witnesses included.
// Failures print the seed; rerun with MAGICRECS_FUZZ_SEED=<seed> (and
// MAGICRECS_FUZZ_TRIALS=<n> for a longer run).

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 0xe1417ull;
}

int FuzzTrials(int default_trials) {
  if (const char* env = std::getenv("MAGICRECS_FUZZ_TRIALS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return default_trials;
}

/// The diamond over `index` (the follower orientation), step by step as
/// MotifEngine runs it, with the per-match emit.
class PerMatchDiamond {
 public:
  PerMatchDiamond(std::shared_ptr<const StaticGraph> index,
                  const DiamondOptions& options)
      : index_(std::move(index)), options_(options), dynamic_([&] {
          DynamicGraphOptions dyn;
          dyn.window = options.window;
          return dyn;
        }()) {}

  void OnEdge(VertexId src, VertexId dst, Timestamp t,
              std::vector<Recommendation>* out) {
    ASSERT_TRUE(dynamic_.Insert(src, dst, t).ok());
    std::vector<TimestampedInEdge> actors;
    dynamic_.GetRecentInEdges(dst, t, &actors);
    if (actors.size() < options_.k) return;
    const size_t query_cap = options_.max_witnesses_per_query;
    if (query_cap > 0 && actors.size() > query_cap) {
      std::nth_element(
          actors.begin(),
          actors.begin() + static_cast<std::ptrdiff_t>(query_cap),
          actors.end(),
          [](const TimestampedInEdge& a, const TimestampedInEdge& b) {
            return a.created_at > b.created_at;
          });
      actors.resize(query_cap);
    }
    const bool use_bitsets =
        options_.use_hub_bitsets && index_->has_hub_index();
    std::vector<std::span<const VertexId>> lists;
    std::vector<BitsetView> bitsets;
    std::vector<VertexId> sources;
    for (const TimestampedInEdge& actor : actors) {
      const auto list = index_->Neighbors(actor.src);
      if (list.empty()) continue;
      lists.push_back(list);
      if (use_bitsets) bitsets.push_back(index_->HubBitset(actor.src));
      sources.push_back(actor.src);
    }
    if (lists.size() < options_.k) return;
    std::vector<ThresholdMatch> matches;
    ThresholdIntersect(lists, options_.k, &matches, options_.algorithm,
                       use_bitsets ? &bitsets : nullptr);
    for (const ThresholdMatch& match : matches) {
      const VertexId user = match.id;
      if (user == dst) continue;
      if (options_.exclude_existing_followers &&
          (index_->HasEdge(dst, user) ||
           std::any_of(actors.begin(), actors.end(),
                       [user](const TimestampedInEdge& e) {
                         return e.src == user;
                       }))) {
        continue;
      }
      Recommendation rec;
      rec.user = user;
      rec.item = dst;
      rec.witness_count = match.count;
      rec.event_time = t;
      rec.trigger = src;
      const size_t cap = options_.max_reported_witnesses;
      for (size_t i = 0; i < lists.size() && rec.witnesses.size() < cap; ++i) {
        if (std::binary_search(lists[i].begin(), lists[i].end(), user)) {
          rec.witnesses.push_back(sources[i]);
        }
      }
      std::sort(rec.witnesses.begin(), rec.witnesses.end());
      out->push_back(std::move(rec));
    }
  }

 private:
  std::shared_ptr<const StaticGraph> index_;
  DiamondOptions options_;
  DynamicInEdgeIndex dynamic_;
};

TEST(MotifEngineEmitTest, OnePassEmitMatchesPerMatchReference) {
  const uint64_t seed = FuzzSeed();
  RecordProperty("seed", std::to_string(seed));
  Rng rng(seed);
  size_t capped_records = 0;  // records whose count exceeds the cap
  const int trials = FuzzTrials(6);
  for (int trial = 0; trial < trials; ++trial) {
    // A random follow graph: A follows B with a per-trial density, so some
    // A's follow many of the acting B's (witness_count above every cap).
    const size_t n = 30 + rng.UniformInt(90);
    const double density = 0.05 + 0.3 * rng.UniformDouble();
    StaticGraphBuilder builder(n);
    for (VertexId a = 0; a < n; ++a) {
      for (VertexId b = 0; b < n; ++b) {
        if (a != b && rng.Bernoulli(density)) {
          ASSERT_TRUE(builder.AddEdge(a, b).ok());
        }
      }
    }
    auto follow_graph = builder.Build();
    ASSERT_TRUE(follow_graph.ok());
    StaticGraph followers = follow_graph->Transpose();
    // A low hub threshold gives these small graphs bitmapped lists.
    followers.BuildHubIndex(n / 4);
    const auto index =
        std::make_shared<const StaticGraph>(std::move(followers));

    // A stream of B -> C actions onto a handful of targets, in time order.
    std::vector<TimestampedEdge> stream(80 + rng.UniformInt(80));
    const size_t targets = 1 + rng.UniformInt(6);
    Timestamp now = 0;
    for (TimestampedEdge& e : stream) {
      now += static_cast<Duration>(rng.UniformInt(Seconds(3)));
      e = {static_cast<VertexId>(rng.UniformInt(n)),
           static_cast<VertexId>(rng.UniformInt(targets)), now};
    }

    DiamondOptions opt;
    opt.k = static_cast<uint32_t>(1 + rng.UniformInt(4));
    opt.window = Minutes(1 + static_cast<int64_t>(rng.UniformInt(10)));
    opt.max_witnesses_per_query =
        rng.Bernoulli(0.5) ? 0 : 4 + rng.UniformInt(60);
    for (const ThresholdAlgorithm algo :
         {ThresholdAlgorithm::kScanCount, ThresholdAlgorithm::kHeapMerge,
          ThresholdAlgorithm::kCandidateVerify}) {
      for (const size_t cap : {0, 1, 3, 8, 64}) {
        for (const bool bitsets : {false, true}) {
          for (const bool exclude : {false, true}) {
            opt.algorithm = algo;
            opt.max_reported_witnesses = cap;
            opt.use_hub_bitsets = bitsets;
            opt.exclude_existing_followers = exclude;
            const std::string where =
                "MAGICRECS_FUZZ_SEED=" + std::to_string(seed) +
                " trial=" + std::to_string(trial) + " algo=" +
                std::string(ThresholdAlgorithmName(algo)) +
                " cap=" + std::to_string(cap) +
                " bitsets=" + std::to_string(bitsets) +
                " exclude=" + std::to_string(exclude);
            auto engine = MotifEngine::CreateDiamond(index, opt);
            ASSERT_TRUE(engine.ok()) << engine.status() << " " << where;
            PerMatchDiamond reference(index, opt);
            std::vector<Recommendation> got;
            std::vector<Recommendation> want;
            for (const TimestampedEdge& e : stream) {
              ASSERT_TRUE(
                  (*engine)->OnEdge(e.src, e.dst, e.created_at, &got).ok());
              reference.OnEdge(e.src, e.dst, e.created_at, &want);
              ASSERT_EQ(got.size(), want.size()) << where;
            }
            for (size_t r = 0; r < want.size(); ++r) {
              ASSERT_EQ(got[r], want[r])
                  << where << " record " << r << ": " << want[r].ToString();
              if (cap > 0 && want[r].witness_count > cap) ++capped_records;
            }
          }
        }
      }
    }
  }
  // The cap must actually bind, or the gather-order selection goes untested.
  EXPECT_GT(capped_records, 0u) << "MAGICRECS_FUZZ_SEED=" << seed;
}

}  // namespace
}  // namespace magicrecs
