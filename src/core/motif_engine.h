// Streaming executor for compiled motif plans — the one motif executor on
// every path. Compiled from MakeDiamondSpec(k, window) it is the paper's
// online diamond detector (§2): when edge B -> C is created at time t,
//   1. query the dynamic index D for the other B's that followed C within
//      (t - window, t]  — the top half of the diamond;
//   2. if at least k distinct B's exist, look up their follower lists in the
//      static index S and find every A present in >= k of them — the bottom
//      half;
//   3. each such A receives C as a recommendation.
// Other specs (triangle closure, content co-action, followee pushes) compile
// to the same plan shape with other parameters; adding a motif means writing
// a spec.

#ifndef MAGICRECS_CORE_MOTIF_ENGINE_H_
#define MAGICRECS_CORE_MOTIF_ENGINE_H_

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/motif_plan.h"
#include "core/recommendation.h"
#include "graph/dynamic_graph.h"
#include "graph/static_graph.h"
#include "util/histogram.h"
#include "util/result.h"

namespace magicrecs {

/// Timing is sampled: a caller times one event in kTimingSamplePeriod,
/// picked by its stream sequence, and reads no clock for the others, in the
/// window half and every query half alike.
inline constexpr uint64_t kTimingSamplePeriod = 64;

/// Whether the event with this stream sequence is a timing sample
/// (sequence 0 always is).
constexpr bool IsTimingSample(uint64_t sequence) {
  return sequence % kTimingSamplePeriod == 0;
}

/// Counters and latency distributions for one engine instance. The counters
/// cover every event; the histograms of times cover only the timed ones
/// (the `timed` argument). The window half counts events and times
/// index-insert and index-window; the query half counts and times the rest.
struct MotifEngineStats {
  uint64_t events = 0;               ///< edges ingested into D
  uint64_t filtered_by_action = 0;   ///< edges the trigger's action rejected
  uint64_t threshold_queries = 0;    ///< query halves run (>= k actors)
  uint64_t raw_candidates = 0;       ///< matches before exclusion filters
  uint64_t recommendations = 0;      ///< emitted recommendations
  uint64_t suppressed_existing = 0;  ///< dropped: already follows the item
  uint64_t suppressed_self = 0;      ///< dropped: candidate == item

  /// Wall-clock cost of each timed query half, in microseconds: the sum of
  /// its stages, s-fetch through emit. An event that stops at the threshold
  /// runs no query half and records nothing.
  Histogram query_micros;

  /// Nanoseconds spent in each plan stage by the timed events that reached
  /// it, indexed by PlanStage. index-insert counts every timed event the
  /// action filter admits, and the query stages count timed queries.
  std::array<Histogram, kNumPlanStages> stage_nanos;

  /// Witness-set size per threshold query (after the celebrity cap): the
  /// paper's main cost driver, since intersection work scales with the
  /// actors' static lists.
  Histogram intersection_sizes;

  std::string ToString() const;
};

/// Executes one compiled motif plan against a static index and its own
/// dynamic index. The plan splits at the query: Window runs the D stages,
/// Query the S stages. Thread-compatible: a Cluster runs Window on one
/// instance per process and Query on one per partition replica.
class MotifEngine {
 public:
  /// `follow_graph` holds the declared static orientation (edges U -> W mean
  /// "U follows W"). The engine materializes (with a hub index) only the
  /// orientation the plan needs.
  static Result<std::unique_ptr<MotifEngine>> Create(
      const StaticGraph& follow_graph, const MotifSpec& spec,
      const MotifOptions& options = {});

  /// Runs over an already-oriented static index — Neighbors(actor) must be
  /// exactly the list the plan gathers (the follower index for the
  /// diamond). The index is shared, not copied: replicas of one partition
  /// keep one S shard between them.
  static Result<std::unique_ptr<MotifEngine>> CreateOverIndex(
      std::shared_ptr<const StaticGraph> static_index, const MotifSpec& spec,
      const MotifOptions& options = {});

  /// The diamond over a follower index: CreateOverIndex with
  /// MakeDiamondSpec(options.k, options.window).
  static Result<std::unique_ptr<MotifEngine>> CreateDiamond(
      std::shared_ptr<const StaticGraph> follower_index,
      const DiamondOptions& options);

  /// Ingests a stream edge: Window, then Query, on this engine's own D and
  /// S. `action` is matched against the trigger edge's action filter (kAny
  /// accepts everything). Appends recommendations to *out (not cleared).
  /// The stream must be delivered in non-decreasing `t` order per
  /// destination (MotifOptions::strict_time_order enforces it). D retains
  /// the edges within the window of the newest time it has seen, so a late
  /// event's query finds only what that watermark left. When `timed`,
  /// records each stage the event reaches in stats().stage_nanos, one clock
  /// read per stage boundary; otherwise it reads no clock.
  Status OnEdge(VertexId src, VertexId dst, Timestamp t,
                std::vector<Recommendation>* out,
                MotifAction action = MotifAction::kFollow, bool timed = false);

  /// The window half (index-insert, index-window): inserts the edge into D
  /// and collects its destination's in-window actors. When at least k
  /// remain, appends the (capped) actors' ids to *actors in the order the
  /// query half gathers them; otherwise appends nothing: "no query".
  Status Window(VertexId src, VertexId dst, Timestamp t,
                std::vector<VertexId>* actors,
                MotifAction action = MotifAction::kFollow, bool timed = false);

  /// The query half (s-fetch, intersect, emit) over the actor ids Window
  /// appended for the same edge (none: nothing runs). Reads S and no D, so
  /// it may run on another engine than the window half. Appends
  /// recommendations to *out. When `timed`, records its stages and total.
  void Query(VertexId src, VertexId dst, Timestamp t,
             std::span<const VertexId> actors,
             std::vector<Recommendation>* out, bool timed = false);

  /// Inserts the edge into D and nothing more: WAL replay rebuilds D with it
  /// (recommendations for replayed events were delivered before the
  /// crash). When `timed`, records an index-insert sample.
  Status Ingest(VertexId src, VertexId dst, Timestamp t,
                MotifAction action = MotifAction::kFollow, bool timed = false);

  /// Drops all dynamic state. Recovery resets an engine before restoring it
  /// from a snapshot + WAL replay, so stale pre-crash edges cannot leak into
  /// the rebuilt state.
  void ClearDynamicState() { dynamic_index_.Clear(); }

  /// Restores the dynamic edge store from DynamicInEdgeIndex::EncodeTo()
  /// bytes (the persist/ snapshot module).
  Status RestoreDynamicState(const uint8_t* data, size_t size) {
    return dynamic_index_.DecodeFrom(data, size);
  }

  const MotifPlan& plan() const { return plan_; }
  const MotifEngineStats& stats() const { return stats_; }
  const StaticGraph& static_index() const { return *static_index_; }
  const DynamicInEdgeIndex& dynamic_index() const { return dynamic_index_; }

  /// Bytes held by the dynamic index (S is shared, accounted by its owner).
  /// D expires edges as the stream's watermark advances, so this follows
  /// the window with no maintenance call.
  size_t DynamicMemoryUsage() const { return dynamic_index_.MemoryUsage(); }

 private:
  MotifEngine(MotifPlan plan, std::shared_ptr<const StaticGraph> static_index,
              const MotifOptions& options);

  /// False (and counted) when the trigger's action filter rejects `action`.
  bool Admits(MotifAction action);

  /// The emit stage's witness step: recs[r] is the record built for
  /// matches_[r]. Each record gets the sources of the first `cap` gathered
  /// lists that hold its user, in gather order, then sorted.
  void CollectWitnesses(size_t cap, Recommendation* recs);

  MotifPlan plan_;
  /// Oriented so that Neighbors(actor) is exactly the list s-fetch gathers
  /// (followers or followees per the plan's lookup).
  std::shared_ptr<const StaticGraph> static_index_;
  DynamicInEdgeIndex dynamic_index_;
  MotifEngineStats stats_;

  /// Resolved from the options and the index once, off the per-event path.
  bool use_bitsets_;

  // Scratch, reused per event to stay allocation-free on the hot path.
  std::vector<TimestampedInEdge> actors_;
  std::vector<VertexId> actor_ids_;  ///< OnEdge's hand-off between halves
  std::vector<std::span<const VertexId>> lists_;
  std::vector<BitsetView> bitsets_;
  std::vector<VertexId> list_sources_;
  std::vector<ThresholdMatch> matches_;
  /// Bitmap over the static index's vertex ids, one bit per vertex
  /// (num_vertices / 8 bytes): marks the kept matches while emit walks the
  /// gathered lists. Match ids come from those lists, so they are always in
  /// range. All-zero between events; an event clears only the words it set.
  std::vector<uint64_t> kept_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_CORE_MOTIF_ENGINE_H_
