// Experiment F1 — Figure 1 of the paper.
//
// The only figure in the paper is the worked diamond example: with k = 2,
// the arrival of edge B2 -> C2 must produce exactly the recommendation
// "C2 to A2". This harness replays the fragment through all three
// implementations (online motif engine, batch finder, 20-partition cluster)
// and reports agreement.

#include <cstdio>
#include <vector>

#include "baseline/snapshot_finder.h"
#include "cluster/cluster.h"
#include "core/motif_engine.h"
#include "gen/figure1.h"

using namespace magicrecs;

namespace {

bool IsExpected(const std::vector<Recommendation>& recs) {
  return recs.size() == 1 && recs[0].user == figure1::kA2 &&
         recs[0].item == figure1::kC2 && recs[0].witness_count == 2;
}

}  // namespace

int main() {
  std::printf("=== F1: Figure 1 walkthrough (expect: push C2 to A2, k=2) "
              "===\n\n");
  const StaticGraph follow = figure1::FollowGraph();
  const StaticGraph follower_index = follow.Transpose();
  const auto edges = figure1::DynamicEdges(0);

  DiamondOptions opt;
  opt.k = 2;
  opt.window = Minutes(10);

  int failures = 0;

  {
    auto engine = MotifEngine::Create(follow, MakeDiamondSpec(2, Minutes(10)));
    std::vector<Recommendation> recs;
    if (engine.ok()) {
      for (const auto& e : edges) {
        if (!(*engine)->OnEdge(e.src, e.dst, e.created_at, &recs).ok()) {
          ++failures;
        }
      }
    }
    std::printf("%-28s %s\n", "online MotifEngine:",
                IsExpected(recs) ? "push C2 to A2  [ok]" : "MISMATCH");
    failures += IsExpected(recs) ? 0 : 1;
  }
  {
    SnapshotMotifFinder finder(&follower_index, opt);
    auto recs = finder.FindAll(edges);
    const bool ok = recs.ok() && IsExpected(*recs);
    std::printf("%-28s %s\n", "batch SnapshotMotifFinder:",
                ok ? "push C2 to A2  [ok]" : "MISMATCH");
    failures += ok ? 0 : 1;
  }
  {
    ClusterOptions copt;
    copt.num_partitions = 20;  // production partition count
    copt.detector = opt;
    auto cluster = Cluster::Create(follow, copt);
    std::vector<Recommendation> recs;
    if (cluster.ok()) {
      for (const auto& e : edges) {
        if (!(*cluster)->Publish({.edge = e}).ok()) ++failures;
      }
      recs = (*cluster)->TakeRecommendations();
    }
    std::printf("%-28s %s\n", "20-partition Cluster:",
                IsExpected(recs) ? "push C2 to A2  [ok]" : "MISMATCH");
    failures += IsExpected(recs) ? 0 : 1;
  }

  std::printf("\nresult: %s\n",
              failures == 0 ? "all three implementations agree with the paper"
                            : "DISAGREEMENT DETECTED");
  return failures;
}
