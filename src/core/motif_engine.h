// Streaming executor for compiled motif plans — the one motif executor on
// every path, split at the query into WindowStage (D) and QueryStage (S).
// Compiled from MakeDiamondSpec(k, window) it is the paper's online diamond
// detector (§2): when edge B -> C is created at time t,
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

/// Counters and latency distributions for one engine half. The counters
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

  /// Adds `other`'s counters and distributions to these: a window half and
  /// its query halves sum to one detector's view.
  void Merge(const MotifEngineStats& other);

  std::string ToString() const;
};

/// The window half of a compiled plan (index-insert, index-window): D, the
/// action filter, the k check and the witness cap, and no S.
/// Thread-compatible: a Cluster runs one per process, on its window thread.
class WindowStage {
 public:
  /// `plan` comes from CompileMotif with these `options`.
  WindowStage(const MotifPlan& plan, const MotifOptions& options);

  /// Inserts the edge into D, then appends its destination's in-window
  /// actors' ids (capped, in gather order) to *actors when at least k
  /// remain, else nothing: "no query". `action` must pass the trigger's
  /// action filter (kAny passes all). Each destination must see
  /// non-decreasing `t` (strict_time_order enforces it); a late event finds
  /// only what the newest time's window left in D. When `timed`, records
  /// each stage reached in stats().stage_nanos; otherwise reads no clock.
  Status Window(VertexId src, VertexId dst, Timestamp t,
                std::vector<VertexId>* actors,
                MotifAction action = MotifAction::kFollow, bool timed = false);

  /// Inserts the edge into D and nothing more, for WAL replay (replayed
  /// events were answered before the crash); `timed` samples index-insert.
  Status Ingest(VertexId src, VertexId dst, Timestamp t,
                MotifAction action = MotifAction::kFollow, bool timed = false);

  /// Drops D. Recovery resets before restoring from a snapshot + WAL
  /// replay, so stale pre-crash edges cannot leak into the rebuilt state.
  void Clear() { dynamic_index_.Clear(); }

  /// Restores D from DynamicInEdgeIndex::EncodeTo() bytes (the persist/
  /// snapshot module).
  Status Restore(const uint8_t* data, size_t size) {
    return dynamic_index_.DecodeFrom(data, size);
  }

  const MotifEngineStats& stats() const { return stats_; }
  const DynamicInEdgeIndex& dynamic_index() const { return dynamic_index_; }

  /// Bytes held by D, which follows the window with no maintenance call.
  size_t MemoryUsage() const { return dynamic_index_.MemoryUsage(); }

 private:
  /// False (and counted) when the trigger's action filter rejects `action`.
  bool Admits(MotifAction action);

  MotifPlan plan_;
  DynamicInEdgeIndex dynamic_index_;
  MotifEngineStats stats_;
  std::vector<TimestampedInEdge> actors_;  ///< scratch, reused per event
};

/// The query half of a compiled plan (s-fetch, intersect, emit): S, and no
/// D. Thread-compatible: a Cluster runs one per partition replica, the
/// replicas of a partition sharing one S shard.
class QueryStage {
 public:
  /// `index` (non-null) is oriented so that Neighbors(actor) is exactly the
  /// list the plan gathers (the follower index for the diamond). It is
  /// shared, not copied. Its neighbor ids may be local ids (a shard cut by
  /// StaticGraph::TransposeIf): the stage counts in them and emits each
  /// user by its vertex id.
  QueryStage(const MotifPlan& plan, std::shared_ptr<const StaticGraph> index,
             const MotifOptions& options);

  /// Runs over the actor ids WindowStage::Window appended for the same
  /// edge (none: nothing runs), appending recommendations to *out: one pass
  /// over the gathered lists counts them, and each record's witnesses, the
  /// sources of the first reported_witness_cap lists that hold its user in
  /// gather order, sorted, come from its match's list mask. When `timed`,
  /// records its stages and total.
  void Query(VertexId src, VertexId dst, Timestamp t,
             std::span<const VertexId> actors,
             std::vector<Recommendation>* out, bool timed = false);

  const MotifPlan& plan() const { return plan_; }
  const MotifEngineStats& stats() const { return stats_; }
  const StaticGraph& static_index() const { return *static_index_; }
  /// Ids the intersect stage's count table spans: the index's
  /// neighbor_universe().
  size_t count_universe() const { return counts_.universe(); }

 private:
  /// Appends the sources of the first min(count, reported_witness_cap)
  /// gathered lists that hold `match`, in gather order, then sorts them.
  /// The mask names the first kMatchListBits lists; only a query gathering
  /// more probes the rest, and only while the mask falls short.
  void AppendWitnesses(const ThresholdMatch& match,
                       std::vector<VertexId>* witnesses) const;

  MotifPlan plan_;
  std::shared_ptr<const StaticGraph> static_index_;
  MotifEngineStats stats_;

  /// Resolved from the options and the index once, off the per-event path.
  bool use_bitsets_;

  // Scratch, reused per event to stay allocation-free on the hot path.
  std::vector<std::span<const VertexId>> lists_;
  std::vector<BitsetView> bitsets_;
  std::vector<VertexId> list_sources_;
  std::vector<ThresholdMatch> matches_;
  /// One 16-byte cell per neighbor id of the static index (16 *
  /// neighbor_universe bytes: a shard's local ids, or every vertex). Every
  /// gathered id is below that universe, so the intersect stage counts here
  /// without hashing, and each match's list mask names its witnesses. A
  /// copy (one per replica) owns its own cells.
  VertexCountTable counts_;
};

/// A detector: one WindowStage over its own D feeding one QueryStage over
/// its static index, edge by edge.
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
  /// diamond). The index is shared, not copied.
  static Result<std::unique_ptr<MotifEngine>> CreateOverIndex(
      std::shared_ptr<const StaticGraph> static_index, const MotifSpec& spec,
      const MotifOptions& options = {});

  /// The diamond over a follower index: CreateOverIndex with
  /// MakeDiamondSpec(options.k, options.window).
  static Result<std::unique_ptr<MotifEngine>> CreateDiamond(
      std::shared_ptr<const StaticGraph> follower_index,
      const DiamondOptions& options);

  /// Ingests a stream edge: WindowStage::Window, then QueryStage::Query on
  /// the actors it found (see both for `action`, the time order and
  /// `timed`). Appends recommendations to *out (not cleared).
  Status OnEdge(VertexId src, VertexId dst, Timestamp t,
                std::vector<Recommendation>* out,
                MotifAction action = MotifAction::kFollow, bool timed = false);

  const MotifPlan& plan() const { return query_.plan(); }
  /// The two halves' stats, merged.
  const MotifEngineStats& stats() const {
    stats_ = window_.stats();
    stats_.Merge(query_.stats());
    return stats_;
  }
  const StaticGraph& static_index() const { return query_.static_index(); }
  const DynamicInEdgeIndex& dynamic_index() const {
    return window_.dynamic_index();
  }

  /// Bytes held by the dynamic index (S is shared, accounted by its owner).
  size_t DynamicMemoryUsage() const { return window_.MemoryUsage(); }

 private:
  MotifEngine(const MotifPlan& plan, std::shared_ptr<const StaticGraph> index,
              const MotifOptions& options)
      : window_(plan, options), query_(plan, std::move(index), options) {}

  WindowStage window_;
  QueryStage query_;
  std::vector<VertexId> actors_;  ///< OnEdge's hand-off between the halves
  mutable MotifEngineStats stats_;  ///< stats()'s merged copy
};

}  // namespace magicrecs

#endif  // MAGICRECS_CORE_MOTIF_ENGINE_H_
