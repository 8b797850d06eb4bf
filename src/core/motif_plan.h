// Compilation of a declarative MotifSpec into a physical execution plan —
// the "optimized query plan against an online graph database" of §3. The
// plan is a record of parameters (window, action, k, caps, static lookup,
// intersection algorithm, exclusion filter) that MotifEngine's Window and
// Query run stage by stage; every supported spec shares its one shape.
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

#include "core/motif_spec.h"
#include "intersect/threshold.h"
#include "util/result.h"
#include "util/types.h"

namespace magicrecs {

/// The stages one event passes through, in plan order. Their names are the
/// per-layer ledger's, so a metric label, a bench row and a line of
/// Explain() name the same layer.
enum class PlanStage : uint8_t {
  kIndexInsert,  ///< "index-insert": append the trigger edge to D
  kIndexWindow,  ///< "index-window": in-window actors, the k check, the cap
  kSFetch,       ///< "s-fetch": each actor's static list from S
  kIntersect,    ///< "intersect": users present in >= k lists
  kEmit,         ///< "emit": exclusion filters, then the Recommendations
};
inline constexpr size_t kNumPlanStages = 5;

std::string_view PlanStageName(PlanStage stage);

/// Which orientation of the static graph s-fetch reads.
enum class StaticLookup {
  kFollowersOfActor,  ///< reverse index: who follows the actor (diamond)
  kFolloweesOfActor,  ///< forward index: whom the actor follows
};

/// Execution knobs of one motif: the planner bakes the witness caps, the
/// exclusion filter and the intersection algorithm into the plan;
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

/// A compiled, immutable plan: the parameters of the one plan shape the v1
/// planner emits. MotifEngine runs it stage by stage, Window the D stages
/// (index-insert, index-window) and Query the S stages (s-fetch, intersect,
/// emit).
struct MotifPlan {
  MotifSpec spec;

  // index-insert: the trigger edge's freshness window and action filter.
  Duration window = 0;
  MotifAction action = MotifAction::kAny;

  // index-window stops unless |actors| >= k, then keeps the witness_cap
  // most recent actors (0 = no cap); intersect keeps users in >= k lists.
  uint32_t k = 0;
  size_t witness_cap = 0;

  // s-fetch: which orientation of S the actors' lists come from.
  StaticLookup lookup = StaticLookup::kFollowersOfActor;

  // intersect: the threshold-intersection strategy.
  ThresholdAlgorithm algorithm = ThresholdAlgorithm::kAuto;

  // emit: drop candidates who already follow the item, and report at most
  // reported_witness_cap witness ids per recommendation.
  bool exclude_existing = false;
  size_t reported_witness_cap = 0;

  /// EXPLAIN-style rendering: one line per stage, under its ledger name.
  std::string Explain() const;
};

/// Validates the spec's shape and returns its plan.
Result<MotifPlan> CompileMotif(const MotifSpec& spec,
                               const MotifOptions& options = {});

}  // namespace magicrecs

#endif  // MAGICRECS_CORE_MOTIF_PLAN_H_
