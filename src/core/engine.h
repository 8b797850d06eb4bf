// RecommenderEngine: the single-machine facade over the paper's two logical
// components — "the partitioned graph infrastructure that maintains the
// relevant data structures" and "the 'program' that performs the motif
// detection" (§3). It owns the follower index (S), applies the production
// influencer cap, and forwards the event stream to a diamond MotifEngine.
//
// For the 20-partition deployment, see cluster/Cluster, which instantiates
// one engine-equivalent per partition.

#ifndef MAGICRECS_CORE_ENGINE_H_
#define MAGICRECS_CORE_ENGINE_H_

#include <memory>
#include <vector>

#include "core/motif_engine.h"
#include "core/recommendation.h"
#include "graph/static_graph.h"
#include "util/result.h"

namespace magicrecs {

/// Engine configuration.
struct EngineOptions {
  DiamondOptions detector;

  /// "For users who follow many accounts … limit the number of influencers
  /// each user can have" (§2). When > 0, only each user's
  /// `max_influencers_per_user` most-followed followees contribute to S.
  /// Shrinks S and bounds per-B follower-list fan-in.
  uint32_t max_influencers_per_user = 0;
};

/// Single-machine recommendation engine. Thread-compatible.
class RecommenderEngine {
 public:
  /// Builds the engine from the *follow* graph (edges A -> B, "A follows
  /// B"): applies the influencer cap, then inverts into the follower index.
  static Result<std::unique_ptr<RecommenderEngine>> Create(
      const StaticGraph& follow_graph, const EngineOptions& options);

  /// Builds the engine directly from an already-inverted (and already
  /// influencer-capped) follower index — the restore path: a snapshot
  /// carries S in this form, so a crashed node can come back without
  /// re-running the offline graph pipeline.
  static Result<std::unique_ptr<RecommenderEngine>> CreateFromFollowerIndex(
      StaticGraph follower_index, const EngineOptions& options);

  /// Ingests one edge-creation event; appends resulting recommendations.
  Status OnEdge(VertexId src, VertexId dst, Timestamp t,
                std::vector<Recommendation>* out) {
    return engine_->OnEdge(src, dst, t, out);
  }

  const EngineOptions& options() const { return options_; }
  const MotifEngineStats& stats() const { return engine_->stats(); }
  const StaticGraph& follower_index() const { return engine_->static_index(); }

  /// The diamond engine: Ingest (WAL replay) and the dynamic-state hooks
  /// the persist/ module drives. The follower index is serialized
  /// separately via follower_index().EncodeTo.
  const MotifEngine& motif_engine() const { return *engine_; }
  MotifEngine& motif_engine() { return *engine_; }

  void Prune(Timestamp now) { engine_->Prune(now); }

  size_t StaticMemoryUsage() const { return follower_index().MemoryUsage(); }
  size_t DynamicMemoryUsage() const { return engine_->DynamicMemoryUsage(); }

  /// The influencer-cap transform, exposed for tests and the T7 experiment:
  /// returns a copy of `follow_graph` where each user keeps only their
  /// `cap` most-popular followees (popularity = follower count; ties break
  /// toward smaller id). cap == 0 returns the graph unchanged. Fails with
  /// the graph builder's status if the capped graph cannot be built.
  static Result<StaticGraph> ApplyInfluencerCap(const StaticGraph& follow_graph,
                                                uint32_t cap);

 private:
  RecommenderEngine(const EngineOptions& options,
                    std::unique_ptr<MotifEngine> engine)
      : options_(options), engine_(std::move(engine)) {}

  EngineOptions options_;
  std::unique_ptr<MotifEngine> engine_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_CORE_ENGINE_H_
