// Cross-implementation equivalence: the same motif semantics are implemented
// three times in this repo (online motif engine, batch snapshot finder,
// partitioned cluster; one machine is a one-partition cluster). On any workload they must agree, and the engine must
// reproduce the recorded output of the hand-coded diamond detector it
// replaced.

#include <algorithm>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "baseline/snapshot_finder.h"
#include "cluster/cluster.h"
#include "core/motif_engine.h"
#include "gen/activity_stream.h"
#include "gen/social_graph.h"

namespace magicrecs {
namespace {

struct Workload {
  StaticGraph follow_graph;
  StaticGraph follower_index;
  std::vector<TimestampedEdge> events;
};

Workload MakeWorkload(uint64_t seed, uint32_t users, uint64_t num_events) {
  SocialGraphOptions gopt;
  gopt.num_users = users;
  gopt.mean_followees = 12;
  gopt.seed = seed;
  auto graph = SocialGraphGenerator(gopt).Generate();
  EXPECT_TRUE(graph.ok());

  ActivityStreamOptions sopt;
  sopt.num_events = num_events;
  sopt.events_per_second = 2'000;
  sopt.burst_fraction = 0.4;
  sopt.mean_burst_size = 5;
  sopt.burst_spread = Minutes(2);
  sopt.seed = seed + 1;
  auto stream = ActivityStreamGenerator(&*graph, sopt).Generate();
  EXPECT_TRUE(stream.ok());

  Workload w;
  w.follower_index = graph->Transpose();
  w.follow_graph = std::move(graph).value();
  w.events = std::move(stream).value().events;
  return w;
}

DiamondOptions DetectorOptions(uint32_t k) {
  DiamondOptions opt;
  opt.k = k;
  opt.window = Minutes(10);
  // Witness-query capping is an nth_element selection whose tie-breaks are
  // implementation-specific; disable it for exact cross-implementation
  // comparison.
  opt.max_witnesses_per_query = 0;
  return opt;
}

/// The diamond engine's full output on the workload's stream.
std::vector<Recommendation> RunEngine(const Workload& w,
                                      const DiamondOptions& options) {
  auto engine = MotifEngine::Create(
      w.follow_graph, MakeDiamondSpec(options.k, options.window), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  std::vector<Recommendation> recs;
  for (const TimestampedEdge& e : w.events) {
    EXPECT_TRUE((*engine)->OnEdge(e.src, e.dst, e.created_at, &recs).ok());
  }
  return recs;
}

/// Order-independent digest of a recommendation multiset: the count plus
/// the wrapping sum of a 64-bit hash (FNV-1a, then a SplitMix64 finalizer)
/// of each recommendation's user, item, witness_count, trigger, event_time,
/// witness count and witness ids, little-endian.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(const Recommendation& rec) {
    uint64_t h = 0xcbf29ce484222325ull;
    const auto put = [&h](const void* p, size_t len) {
      const auto* bytes = static_cast<const uint8_t*>(p);
      for (size_t i = 0; i < len; ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
    };
    const uint32_t num_witnesses = static_cast<uint32_t>(rec.witnesses.size());
    put(&rec.user, 4);
    put(&rec.item, 4);
    put(&rec.witness_count, 4);
    put(&rec.trigger, 4);
    put(&rec.event_time, 8);
    put(&num_witnesses, 4);
    for (const VertexId witness : rec.witnesses) put(&witness, 4);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    ++count;
    sum += h;
  }

  bool operator==(const Digest&) const = default;
};

using RecKey = std::tuple<VertexId, VertexId, Timestamp, uint32_t>;

std::multiset<RecKey> Keys(const std::vector<Recommendation>& recs) {
  std::multiset<RecKey> out;
  for (const auto& r : recs) {
    out.insert({r.user, r.item, r.event_time, r.witness_count});
  }
  return out;
}

class EquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EquivalenceTest, OnlineDetectorMatchesBatchGroundTruth) {
  const uint32_t k = GetParam();
  const Workload w = MakeWorkload(100 + k, 400, 4'000);

  const std::vector<Recommendation> online_recs =
      RunEngine(w, DetectorOptions(k));

  SnapshotMotifFinder batch(&w.follower_index, DetectorOptions(k));
  auto batch_recs = batch.FindAll(w.events);
  ASSERT_TRUE(batch_recs.ok());

  EXPECT_EQ(Keys(online_recs), Keys(*batch_recs)) << "k=" << k;
  if (k <= 2) {
    EXPECT_FALSE(online_recs.empty()) << "workload should produce motifs";
  }
}

TEST_P(EquivalenceTest, EngineReproducesHandCodedDetectorDigest) {
  // Digests of the hand-coded diamond detector's full output, recorded on
  // this workload before the engine replaced it. The production witness cap
  // (64) binds here — uncapped witness sets reach 99-136 actors — so the
  // nth_element tie-breaks of the cap are pinned too.
  constexpr Digest kDetectorDigests[] = {
      {660'255, 0x7281e5b6471638adull},  // k=1
      {369'298, 0x1f790ea1778d52a5ull},  // k=2
      {201'906, 0xe4ce05707935bfd4ull},  // k=3
  };
  const uint32_t k = GetParam();
  const Workload w = MakeWorkload(200 + k, 400, 4'000);
  DiamondOptions options;
  options.k = k;
  options.window = Minutes(10);
  ASSERT_EQ(options.max_witnesses_per_query, 64u);

  Digest digest;
  for (const Recommendation& rec : RunEngine(w, options)) digest.Add(rec);
  EXPECT_EQ(digest, kDetectorDigests[k - 1])
      << "k=" << k << " count=" << digest.count << " sum=0x" << std::hex
      << digest.sum;
}

TEST_P(EquivalenceTest, ClusterMatchesSingleMachine) {
  const uint32_t k = GetParam();
  const Workload w = MakeWorkload(300 + k, 400, 4'000);

  const std::vector<Recommendation> single_recs =
      RunEngine(w, DetectorOptions(k));

  ClusterOptions copt;
  copt.num_partitions = 8;
  copt.replicas_per_partition = 2;
  copt.detector = DetectorOptions(k);
  auto cluster = Cluster::Create(w.follow_graph, copt);
  ASSERT_TRUE(cluster.ok());
  for (const TimestampedEdge& e : w.events) {
    ASSERT_TRUE((*cluster)->Publish({.edge = e}).ok());
  }
  const std::vector<Recommendation> cluster_recs =
      (*cluster)->TakeRecommendations();

  EXPECT_EQ(Keys(cluster_recs), Keys(single_recs)) << "k=" << k;

  // One machine is a one-partition cluster: with the influencer cap on, its
  // ordered output is exactly the engine's over the capped follow graph.
  ClusterOptions one;
  one.num_partitions = 1;
  one.detector = DetectorOptions(k);
  one.max_influencers_per_user = 5;
  auto capped =
      ApplyInfluencerCap(w.follow_graph, one.max_influencers_per_user);
  ASSERT_TRUE(capped.ok()) << capped.status();
  ASSERT_LT(capped->num_edges(), w.follow_graph.num_edges())
      << "the cap should bind on this workload";
  Workload capped_w;
  capped_w.follow_graph = std::move(capped).value();
  capped_w.events = w.events;
  const std::vector<Recommendation> capped_single =
      RunEngine(capped_w, one.detector);
  auto one_cluster = Cluster::Create(w.follow_graph, one);
  ASSERT_TRUE(one_cluster.ok()) << one_cluster.status();
  for (const TimestampedEdge& e : w.events) {
    ASSERT_TRUE((*one_cluster)->Publish({.edge = e}).ok());
  }
  const std::vector<Recommendation> one_recs =
      (*one_cluster)->TakeRecommendations();
  if (k <= 2) {
    EXPECT_FALSE(one_recs.empty()) << "k=" << k;
  }
  EXPECT_EQ(one_recs, capped_single) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(AcrossK, EquivalenceTest,
                         ::testing::Values(1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(EquivalenceEdgeCaseTest, CapsMatchBetweenOnlineAndBatchWhenUntriggered) {
  // With a generous witness cap that never binds, capped options still agree.
  const Workload w = MakeWorkload(999, 300, 3'000);
  DiamondOptions opt = DetectorOptions(2);
  opt.max_witnesses_per_query = 1'000;
  opt.max_in_edges_per_vertex = 100'000;

  const std::vector<Recommendation> online_recs = RunEngine(w, opt);
  SnapshotMotifFinder batch(&w.follower_index, opt);
  auto batch_recs = batch.FindAll(w.events);
  ASSERT_TRUE(batch_recs.ok());
  EXPECT_EQ(Keys(online_recs), Keys(*batch_recs));
}

TEST(EquivalenceEdgeCaseTest, PerVertexRetentionCapMatchesBatch) {
  // The D retention cap drops oldest in-edges; the batch finder simulates
  // the same eviction arithmetic.
  const Workload w = MakeWorkload(777, 300, 3'000);
  DiamondOptions opt = DetectorOptions(2);
  opt.max_in_edges_per_vertex = 3;

  const std::vector<Recommendation> online_recs = RunEngine(w, opt);
  SnapshotMotifFinder batch(&w.follower_index, opt);
  auto batch_recs = batch.FindAll(w.events);
  ASSERT_TRUE(batch_recs.ok());
  EXPECT_EQ(Keys(online_recs), Keys(*batch_recs));
}

}  // namespace
}  // namespace magicrecs
