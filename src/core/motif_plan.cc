#include "core/motif_plan.h"

#include "util/str_format.h"

namespace magicrecs {

std::string_view PlanOpKindName(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kInsertDynamic:
      return "INSERT_DYNAMIC";
    case PlanOpKind::kCollectActors:
      return "COLLECT_ACTORS";
    case PlanOpKind::kCheckThreshold:
      return "CHECK_THRESHOLD";
    case PlanOpKind::kCapWitnesses:
      return "CAP_WITNESSES";
    case PlanOpKind::kGatherStaticLists:
      return "GATHER_STATIC_LISTS";
    case PlanOpKind::kThresholdIntersect:
      return "THRESHOLD_INTERSECT";
    case PlanOpKind::kFilterCandidates:
      return "FILTER_CANDIDATES";
    case PlanOpKind::kEmit:
      return "EMIT";
  }
  return "UNKNOWN";
}

PlanStage PlanStageOf(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kInsertDynamic:
      return PlanStage::kIndexInsert;
    case PlanOpKind::kCollectActors:
    case PlanOpKind::kCheckThreshold:
    case PlanOpKind::kCapWitnesses:
      return PlanStage::kIndexWindow;
    case PlanOpKind::kGatherStaticLists:
      return PlanStage::kSFetch;
    case PlanOpKind::kThresholdIntersect:
      return PlanStage::kIntersect;
    case PlanOpKind::kFilterCandidates:
    case PlanOpKind::kEmit:
      return PlanStage::kEmit;
  }
  return PlanStage::kEmit;
}

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

std::string PlanOp::Describe() const {
  switch (kind) {
    case PlanOpKind::kInsertDynamic: {
      std::string desc = StrFormat("D[item].append(actor, t), window=%.0fs",
                                   ToSeconds(window));
      if (action != MotifAction::kAny) {
        desc += StrFormat(", action=%s",
                          std::string(MotifActionName(action)).c_str());
      }
      return desc;
    }
    case PlanOpKind::kCollectActors:
      return StrFormat("actors = distinct sources of D[item] in (t-%.0fs, t]",
                       ToSeconds(window));
    case PlanOpKind::kCheckThreshold:
      return StrFormat("stop unless |actors| >= %u", k);
    case PlanOpKind::kCapWitnesses:
      return cap == 0 ? std::string("no cap")
                      : StrFormat("keep %zu most recent actors", cap);
    case PlanOpKind::kGatherStaticLists:
      return lookup == StaticLookup::kFollowersOfActor
                 ? std::string("lists[i] = S.followers(actors[i])  (reverse index)")
                 : std::string("lists[i] = S.followees(actors[i])  (forward index)");
    case PlanOpKind::kThresholdIntersect:
      return StrFormat("users in >= %u lists, algorithm=%s", k,
                       std::string(ThresholdAlgorithmName(algorithm)).c_str());
    case PlanOpKind::kFilterCandidates:
      return exclude_existing
                 ? std::string("drop user==item, existing followers")
                 : std::string("drop user==item");
    case PlanOpKind::kEmit:
      return StrFormat("recommend item to each user, report <=%zu witnesses",
                       cap);
  }
  return "";
}

std::string MotifPlan::Explain() const {
  std::string out =
      StrFormat("plan for motif '%s' (trigger %s -> %s, k=%u):\n",
                spec.name.c_str(), spec.trigger_src.c_str(),
                spec.trigger_dst.c_str(), spec.threshold);
  for (size_t i = 0; i < ops.size(); ++i) {
    out += StrFormat("  %zu. %-20s %s\n", i + 1,
                     std::string(PlanOpKindName(ops[i].kind)).c_str(),
                     ops[i].Describe().c_str());
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

  PlanOp insert;
  insert.kind = PlanOpKind::kInsertDynamic;
  insert.window = trigger->window;
  insert.action = trigger->action;
  plan.ops.push_back(insert);

  PlanOp collect;
  collect.kind = PlanOpKind::kCollectActors;
  collect.window = trigger->window;
  plan.ops.push_back(collect);

  PlanOp check;
  check.kind = PlanOpKind::kCheckThreshold;
  check.k = spec.threshold;
  plan.ops.push_back(check);

  if (options.max_witnesses_per_query > 0) {
    PlanOp cap;
    cap.kind = PlanOpKind::kCapWitnesses;
    cap.cap = options.max_witnesses_per_query;
    plan.ops.push_back(cap);
  }

  PlanOp gather;
  gather.kind = PlanOpKind::kGatherStaticLists;
  gather.lookup = lookup;
  plan.ops.push_back(gather);

  PlanOp intersect;
  intersect.kind = PlanOpKind::kThresholdIntersect;
  intersect.k = spec.threshold;
  intersect.algorithm = options.algorithm;
  plan.ops.push_back(intersect);

  PlanOp filter;
  filter.kind = PlanOpKind::kFilterCandidates;
  filter.exclude_existing = options.exclude_existing_followers;
  plan.ops.push_back(filter);

  PlanOp emit;
  emit.kind = PlanOpKind::kEmit;
  emit.cap = options.max_reported_witnesses;
  plan.ops.push_back(emit);

  return plan;
}

}  // namespace magicrecs
