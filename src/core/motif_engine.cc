#include "core/motif_engine.h"

#include <algorithm>
#include <bit>

#include "util/clock.h"
#include "util/str_format.h"

namespace magicrecs {

namespace {

/// The clock reads of one Window or Query call: one per stage boundary when
/// timed, none otherwise. The query time comes from the same reads.
class StageClock {
 public:
  StageClock(bool timed, MotifEngineStats* stats)
      : stats_(timed ? stats : nullptr) {
    if (stats_ != nullptr) start_ = last_ = SteadyNowNanos();
  }

  /// Ends `stage` now.
  void Lap(PlanStage stage) {
    if (stats_ == nullptr) return;
    const int64_t now = SteadyNowNanos();
    stats_->stage_nanos[static_cast<size_t>(stage)].Record(now - last_);
    last_ = now;
  }

  /// Records the query time: the first read to the last lap.
  void Finish() {
    if (stats_ != nullptr) stats_->query_micros.Record((last_ - start_) / 1000);
  }

 private:
  MotifEngineStats* stats_;
  int64_t start_ = 0;
  int64_t last_ = 0;
};

}  // namespace

Result<std::unique_ptr<MotifEngine>> MotifEngine::Create(
    const StaticGraph& follow_graph, const MotifSpec& spec,
    const MotifOptions& options) {
  MAGICRECS_ASSIGN_OR_RETURN(const MotifPlan plan, CompileMotif(spec, options));

  // Materialize only the orientation the plan reads. The DSL's static edge
  // U -> W means "U follows W", matching the follow graph's orientation, so:
  //   followers(actor)  needs the transpose;
  //   followees(actor)  needs the graph as-is.
  StaticGraph index = plan.lookup == StaticLookup::kFollowersOfActor
                          ? follow_graph.Transpose()
                          : follow_graph;
  index.BuildHubIndex();
  return CreateOverIndex(std::make_shared<const StaticGraph>(std::move(index)),
                         spec, options);
}

Result<std::unique_ptr<MotifEngine>> MotifEngine::CreateOverIndex(
    std::shared_ptr<const StaticGraph> static_index, const MotifSpec& spec,
    const MotifOptions& options) {
  if (static_index == nullptr) {
    return Status::InvalidArgument("motif engine needs a static index");
  }
  MAGICRECS_ASSIGN_OR_RETURN(const MotifPlan plan, CompileMotif(spec, options));
  return std::unique_ptr<MotifEngine>(
      new MotifEngine(plan, std::move(static_index), options));
}

Result<std::unique_ptr<MotifEngine>> MotifEngine::CreateDiamond(
    std::shared_ptr<const StaticGraph> follower_index,
    const DiamondOptions& options) {
  return CreateOverIndex(std::move(follower_index),
                         MakeDiamondSpec(options.k, options.window), options);
}

Status MotifEngine::OnEdge(VertexId src, VertexId dst, Timestamp t,
                           std::vector<Recommendation>* out,
                           MotifAction action, bool timed) {
  actors_.clear();
  MAGICRECS_RETURN_IF_ERROR(
      window_.Window(src, dst, t, &actors_, action, timed));
  query_.Query(src, dst, t, actors_, out, timed);
  return Status::OK();
}

WindowStage::WindowStage(const MotifPlan& plan, const MotifOptions& options)
    : plan_(plan),
      dynamic_index_({plan.window, options.max_in_edges_per_vertex,
                      options.strict_time_order}) {}

bool WindowStage::Admits(MotifAction action) {
  if (plan_.action == MotifAction::kAny || action == plan_.action) {
    return true;
  }
  ++stats_.filtered_by_action;
  return false;
}

Status WindowStage::Ingest(VertexId src, VertexId dst, Timestamp t,
                           MotifAction action, bool timed) {
  if (!Admits(action)) return Status::OK();
  StageClock clock(timed, &stats_);
  MAGICRECS_RETURN_IF_ERROR(dynamic_index_.Insert(src, dst, t));
  clock.Lap(PlanStage::kIndexInsert);
  ++stats_.events;
  return Status::OK();
}

Status WindowStage::Window(VertexId src, VertexId dst, Timestamp t,
                           std::vector<VertexId>* actors, MotifAction action,
                           bool timed) {
  if (!Admits(action)) return Status::OK();  // not the motif's action
  StageClock clock(timed, &stats_);
  MAGICRECS_RETURN_IF_ERROR(dynamic_index_.Insert(src, dst, t));
  ++stats_.events;
  clock.Lap(PlanStage::kIndexInsert);

  // A log of fewer than k entries holds fewer than k sources: not read.
  if (dynamic_index_.last_log_size() < plan_.k) {
    clock.Lap(PlanStage::kIndexWindow);
    return Status::OK();
  }
  dynamic_index_.GetRecentInEdges(dst, t, &actors_);
  const bool query = actors_.size() >= plan_.k;
  // Celebrity-target guard: keep only the most recent actors.
  const size_t cap = plan_.witness_cap;
  if (query && cap > 0 && actors_.size() > cap) {
    std::nth_element(
        actors_.begin(), actors_.begin() + static_cast<std::ptrdiff_t>(cap),
        actors_.end(),
        [](const TimestampedInEdge& a, const TimestampedInEdge& b) {
          return a.created_at > b.created_at;
        });
    actors_.resize(cap);
  }
  clock.Lap(PlanStage::kIndexWindow);
  if (!query) return Status::OK();
  for (const TimestampedInEdge& actor : actors_) actors->push_back(actor.src);
  return Status::OK();
}

QueryStage::QueryStage(const MotifPlan& plan,
                       std::shared_ptr<const StaticGraph> index,
                       const MotifOptions& options)
    : plan_(plan),
      static_index_(std::move(index)),
      use_bitsets_(options.use_hub_bitsets && static_index_->has_hub_index()),
      counts_(static_index_->neighbor_universe()) {}

void QueryStage::Query(VertexId src, VertexId dst, Timestamp t,
                       std::span<const VertexId> actors,
                       std::vector<Recommendation>* out, bool timed) {
  if (actors.empty()) return;  // no query: nothing runs, nothing is timed
  StageClock clock(timed, &stats_);
  const StaticGraph& index = *static_index_;
  ++stats_.threshold_queries;

  // s-fetch. Hub actors also carry their bitmap view for O(1) verification
  // probes.
  stats_.intersection_sizes.Record(static_cast<int64_t>(actors.size()));
  lists_.clear();
  bitsets_.clear();
  list_sources_.clear();
  for (const VertexId actor : actors) {
    const auto list = index.Neighbors(actor);
    if (list.empty()) continue;
    lists_.push_back(list);
    if (use_bitsets_) bitsets_.push_back(index.HubBitset(actor));
    list_sources_.push_back(actor);
  }
  clock.Lap(PlanStage::kSFetch);

  // intersect
  if (lists_.size() < plan_.k) {
    clock.Finish();
    return;
  }
  ThresholdIntersect(lists_, plan_.k, &matches_, plan_.algorithm,
                     use_bitsets_ ? &bitsets_ : nullptr, &counts_);
  stats_.raw_candidates += matches_.size();
  clock.Lap(PlanStage::kIntersect);

  // emit: each match as its vertex id, the exclusion filters, then the
  // record with its witnesses read from the match's list mask.
  const bool follower_orientation =
      plan_.lookup == StaticLookup::kFollowersOfActor;
  for (const ThresholdMatch& match : matches_) {
    const VertexId user = index.GlobalId(match.id);
    if (user == dst) {
      ++stats_.suppressed_self;
      continue;
    }
    // "Already follows the item": a static in-edge of the item from the user
    // (only checkable in follower orientation) or an in-window dynamic
    // action by the user.
    if (plan_.exclude_existing &&
        ((follower_orientation && index.HasEdge(dst, match.id)) ||
         std::find(actors.begin(), actors.end(), user) != actors.end())) {
      ++stats_.suppressed_existing;
      continue;
    }
    Recommendation& rec = out->emplace_back();
    rec.user = user;
    rec.item = dst;
    rec.witness_count = match.count;
    rec.event_time = t;
    rec.trigger = src;
    AppendWitnesses(match, &rec.witnesses);
    ++stats_.recommendations;
  }
  clock.Lap(PlanStage::kEmit);
  clock.Finish();
}

void QueryStage::AppendWitnesses(const ThresholdMatch& match,
                                 std::vector<VertexId>* witnesses) const {
  const size_t want =
      std::min<size_t>(match.count, plan_.reported_witness_cap);
  if (want == 0) return;
  witnesses->reserve(want);
  for (uint64_t bits = match.lists; bits != 0 && witnesses->size() < want;
       bits &= bits - 1) {
    witnesses->push_back(list_sources_[std::countr_zero(bits)]);
  }
  // The mask names only the first kMatchListBits lists: past them, probe.
  for (size_t i = kMatchListBits;
       i < lists_.size() && witnesses->size() < want; ++i) {
    if (std::binary_search(lists_[i].begin(), lists_[i].end(), match.id)) {
      witnesses->push_back(list_sources_[i]);
    }
  }
  std::sort(witnesses->begin(), witnesses->end());
}

void MotifEngineStats::Merge(const MotifEngineStats& other) {
  events += other.events;
  filtered_by_action += other.filtered_by_action;
  threshold_queries += other.threshold_queries;
  raw_candidates += other.raw_candidates;
  recommendations += other.recommendations;
  suppressed_existing += other.suppressed_existing;
  suppressed_self += other.suppressed_self;
  query_micros.Merge(other.query_micros);
  for (size_t stage = 0; stage < kNumPlanStages; ++stage) {
    stage_nanos[stage].Merge(other.stage_nanos[stage]);
  }
  intersection_sizes.Merge(other.intersection_sizes);
}

std::string MotifEngineStats::ToString() const {
  return StrFormat(
      "events=%llu threshold_queries=%llu raw_candidates=%llu "
      "recommendations=%llu suppressed_existing=%llu suppressed_self=%llu\n"
      "query latency: %s",
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(threshold_queries),
      static_cast<unsigned long long>(raw_candidates),
      static_cast<unsigned long long>(recommendations),
      static_cast<unsigned long long>(suppressed_existing),
      static_cast<unsigned long long>(suppressed_self),
      query_micros.ToString(1.0, "us").c_str());
}

}  // namespace magicrecs
