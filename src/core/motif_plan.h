// Compilation of a declarative MotifSpec into a physical execution plan —
// the "optimized query plan against an online graph database" of §3.
//
// The v1 planner supports the trigger-fan-in family of motifs, which covers
// everything the paper discusses (diamond, triangle-closure, content
// co-action):
//   * exactly one dynamic edge, which is the trigger (W -> I);
//   * the counted variable is the trigger source W, the emitted item is I;
//   * the emitted user U is connected to W by one static edge, in either
//     orientation (U -> W: recommend to W's followers; W -> U: recommend to
//     W's followees).
// Unsupported shapes return Unimplemented with an explanation, never a wrong
// plan.

#ifndef MAGICRECS_CORE_MOTIF_PLAN_H_
#define MAGICRECS_CORE_MOTIF_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/motif_spec.h"
#include "intersect/threshold.h"
#include "util/result.h"
#include "util/types.h"

namespace magicrecs {

/// Physical operators of the streaming motif plan.
enum class PlanOpKind {
  kInsertDynamic,       ///< append trigger edge to D, prune window
  kCollectActors,       ///< actors = distinct in-window sources on item
  kCheckThreshold,      ///< stop unless |actors| >= k
  kCapWitnesses,        ///< keep most recent N actors
  kGatherStaticLists,   ///< per-actor sorted static adjacency from S
  kThresholdIntersect,  ///< users present in >= k lists
  kFilterCandidates,    ///< drop self / already-following users
  kEmit,                ///< materialize Recommendations
};

std::string_view PlanOpKindName(PlanOpKind kind);

/// The stages one event passes through, in plan order: each groups the
/// consecutive ops that do one layer's work. Their names are the per-layer
/// ledger's, so a metric label and a bench row name the same layer.
enum class PlanStage : uint8_t {
  kIndexInsert,  ///< "index-insert": kInsertDynamic
  kIndexWindow,  ///< "index-window": kCollectActors, kCheckThreshold,
                 ///< kCapWitnesses
  kSFetch,       ///< "s-fetch": kGatherStaticLists
  kIntersect,    ///< "intersect": kThresholdIntersect
  kEmit,         ///< "emit": kFilterCandidates, kEmit
};
inline constexpr size_t kNumPlanStages = 5;

/// The stage `kind` belongs to.
PlanStage PlanStageOf(PlanOpKind kind);
std::string_view PlanStageName(PlanStage stage);

/// Which orientation of the static graph kGatherStaticLists reads.
enum class StaticLookup {
  kFollowersOfActor,  ///< reverse index: who follows the actor (diamond)
  kFolloweesOfActor,  ///< forward index: whom the actor follows
};

/// One plan step with its parameters (unused fields zero).
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kInsertDynamic;
  Duration window = 0;                    // kInsertDynamic/kCollectActors
  uint32_t k = 0;                         // kCheckThreshold/kThresholdIntersect
  size_t cap = 0;                         // kCapWitnesses/kEmit
  StaticLookup lookup = StaticLookup::kFollowersOfActor;  // kGatherStaticLists
  ThresholdAlgorithm algorithm = ThresholdAlgorithm::kAuto;  // intersect
  bool exclude_existing = false;          // kFilterCandidates
  MotifAction action = MotifAction::kAny;  // kInsertDynamic (stream filter)

  /// Human-readable parameter summary for Explain().
  std::string Describe() const;
};

/// Execution knobs of one motif: the planner bakes the witness caps, the
/// exclusion filter and the intersection algorithm into the plan's ops;
/// MotifEngine applies the rest to its indexes.
struct MotifOptions {
  /// Upper bound on dynamic in-edges retained per target (forwarded to the
  /// D structure; 0 = unlimited).
  size_t max_in_edges_per_vertex = 0;

  /// Caps how many B's participate in one motif query; when exceeded, the
  /// most recent actors are kept. Bounds worst-case query cost on celebrity
  /// targets. 0 = unlimited.
  size_t max_witnesses_per_query = 64;

  /// Caps the witness ids materialized into each Recommendation (the count
  /// is always exact). 0 = report none.
  size_t max_reported_witnesses = 8;

  /// Drop candidates who already follow the recommended account — they
  /// cannot be "recommended" something they have (checked against both S
  /// and the in-window dynamic edges).
  bool exclude_existing_followers = true;

  /// Threshold-intersection strategy (kAuto selects per query).
  ThresholdAlgorithm algorithm = ThresholdAlgorithm::kAuto;

  /// Probe hub actors' bitmaps (StaticGraph::BuildHubIndex) during
  /// candidate verification instead of galloping their sorted arrays.
  /// No-op when the static index has no hub index built.
  bool use_hub_bitsets = true;

  /// Rejects out-of-order event timestamps instead of clamping them.
  bool strict_time_order = false;
};

/// Tunable parameters of the paper's diamond motif ("k and tau are
/// tunable", §1): MakeDiamondSpec(k, window) run with these options.
struct DiamondOptions : MotifOptions {
  /// Minimum number of distinct followings that must act on the same target
  /// (the paper's k; production value 3).
  uint32_t k = 3;

  /// Freshness window tau: only actions within this window of the trigger
  /// count toward k.
  Duration window = Minutes(10);
};

/// A compiled, immutable plan.
struct MotifPlan {
  MotifSpec spec;
  std::vector<PlanOp> ops;

  /// EXPLAIN-style rendering of the plan.
  std::string Explain() const;
};

/// Validates the spec's shape and emits the physical plan.
Result<MotifPlan> CompileMotif(const MotifSpec& spec,
                               const MotifOptions& options = {});

}  // namespace magicrecs

#endif  // MAGICRECS_CORE_MOTIF_PLAN_H_
