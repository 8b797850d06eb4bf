#include "core/motif_plan.h"

#include <utility>

#include "util/str_format.h"

namespace magicrecs {

std::string_view PlanStageName(PlanStage stage) {
  switch (stage) {
    case PlanStage::kIndexInsert:
      return "index-insert";
    case PlanStage::kIndexWindow:
      return "index-window";
    case PlanStage::kSFetch:
      return "s-fetch";
    case PlanStage::kIntersect:
      return "intersect";
    case PlanStage::kEmit:
      return "emit";
  }
  return "unknown";
}

std::string MotifPlan::Explain() const {
  std::string insert =
      StrFormat("D[item].append(actor, t), window=%.0fs", ToSeconds(window));
  if (action != MotifAction::kAny) {
    insert +=
        StrFormat(", action=%s", std::string(MotifActionName(action)).c_str());
  }
  std::string collect = StrFormat(
      "actors = distinct sources of D[item] in (t-%.0fs, t]; "
      "stop unless |actors| >= %u; ",
      ToSeconds(window), k);
  collect += witness_cap == 0
                 ? std::string("no cap")
                 : StrFormat("keep %zu most recent actors", witness_cap);
  std::string emit = StrFormat(
      "%s; recommend item to each user, report <=%zu witnesses",
      exclude_existing ? "drop user==item, existing followers"
                       : "drop user==item",
      reported_witness_cap);
  const std::string stages[kNumPlanStages] = {
      std::move(insert),
      std::move(collect),
      lookup == StaticLookup::kFollowersOfActor
          ? "lists[i] = S.followers(actors[i])  (reverse index)"
          : "lists[i] = S.followees(actors[i])  (forward index)",
      StrFormat("users in >= %u lists, algorithm=%s", k,
                std::string(ThresholdAlgorithmName(algorithm)).c_str()),
      std::move(emit),
  };
  std::string out =
      StrFormat("plan for motif '%s' (trigger %s -> %s, k=%u):\n",
                spec.name.c_str(), spec.trigger_src.c_str(),
                spec.trigger_dst.c_str(), spec.threshold);
  for (size_t i = 0; i < kNumPlanStages; ++i) {
    out += StrFormat(
        "  %zu. %-13s %s\n", i + 1,
        std::string(PlanStageName(static_cast<PlanStage>(i))).c_str(),
        stages[i].c_str());
  }
  return out;
}

Result<MotifPlan> CompileMotif(const MotifSpec& spec,
                               const MotifOptions& options) {
  MAGICRECS_RETURN_IF_ERROR(spec.Validate());

  // Locate the trigger (Validate guarantees existence and dynamism).
  const MotifEdgeSpec* trigger = nullptr;
  size_t dynamic_edges = 0;
  for (const MotifEdgeSpec& edge : spec.edges) {
    if (edge.kind == MotifEdgeKind::kDynamic) {
      ++dynamic_edges;
      if (edge.src == spec.trigger_src && edge.dst == spec.trigger_dst) {
        trigger = &edge;
      }
    }
  }
  if (dynamic_edges != 1) {
    return Status::Unimplemented(
        "v1 planner supports exactly one dynamic edge (the trigger)");
  }

  if (spec.counted != spec.trigger_src) {
    return Status::Unimplemented(StrFormat(
        "v1 planner requires count(%s) over the trigger source '%s'",
        spec.counted.c_str(), spec.trigger_src.c_str()));
  }
  if (spec.emit_item != spec.trigger_dst) {
    return Status::Unimplemented(StrFormat(
        "v1 planner requires the emitted item '%s' to be the trigger target "
        "'%s'",
        spec.emit_item.c_str(), spec.trigger_dst.c_str()));
  }
  if (spec.emit_user == spec.counted || spec.emit_user == spec.emit_item) {
    return Status::Unimplemented(
        "emitted user must be a distinct variable reached by a static edge");
  }

  // Find the single static edge connecting emit_user and the counted
  // variable, in either orientation.
  const MotifEdgeSpec* static_edge = nullptr;
  StaticLookup lookup = StaticLookup::kFollowersOfActor;
  size_t static_edges = 0;
  for (const MotifEdgeSpec& edge : spec.edges) {
    if (edge.kind != MotifEdgeKind::kStatic) continue;
    ++static_edges;
    if (edge.src == spec.emit_user && edge.dst == spec.counted) {
      static_edge = &edge;
      lookup = StaticLookup::kFollowersOfActor;
    } else if (edge.src == spec.counted && edge.dst == spec.emit_user) {
      static_edge = &edge;
      lookup = StaticLookup::kFolloweesOfActor;
    }
  }
  if (static_edge == nullptr) {
    return Status::Unimplemented(StrFormat(
        "no static edge connects emitted user '%s' with counted variable '%s'",
        spec.emit_user.c_str(), spec.counted.c_str()));
  }
  if (static_edges != 1) {
    return Status::Unimplemented(
        "v1 planner supports exactly one static edge");
  }

  MotifPlan plan;
  plan.spec = spec;
  plan.window = trigger->window;
  plan.action = trigger->action;
  plan.k = spec.threshold;
  plan.witness_cap = options.max_witnesses_per_query;
  plan.lookup = lookup;
  plan.algorithm = options.algorithm;
  plan.exclude_existing = options.exclude_existing_followers;
  plan.reported_witness_cap = options.max_reported_witnesses;
  return plan;
}

}  // namespace magicrecs
