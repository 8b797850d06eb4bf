#include "core/motif_engine.h"

#include <algorithm>

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
      kept_((static_index_->num_vertices() + 63) / 64, 0) {}

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
                     use_bitsets_ ? &bitsets_ : nullptr);
  stats_.raw_candidates += matches_.size();
  clock.Lap(PlanStage::kIntersect);

  // emit: the exclusion filters, then the records.
  const bool follower_orientation =
      plan_.lookup == StaticLookup::kFollowersOfActor;
  auto keep = matches_.begin();
  for (auto it = matches_.begin(); it != matches_.end(); ++it) {
    const VertexId user = it->id;
    if (user == dst) {
      ++stats_.suppressed_self;
      continue;
    }
    // "Already follows the item": a static in-edge of the item from the user
    // (only checkable in follower orientation) or an in-window dynamic
    // action by the user.
    if (plan_.exclude_existing &&
        ((follower_orientation && index.HasEdge(dst, user)) ||
         std::find(actors.begin(), actors.end(), user) != actors.end())) {
      ++stats_.suppressed_existing;
      continue;
    }
    *keep++ = *it;
  }
  matches_.erase(keep, matches_.end());

  const size_t cap = plan_.reported_witness_cap;
  const size_t first = out->size();
  for (const ThresholdMatch& match : matches_) {
    Recommendation rec;
    rec.user = match.id;
    rec.item = dst;
    rec.witness_count = match.count;
    rec.event_time = t;
    rec.trigger = src;
    rec.witnesses.reserve(std::min<size_t>(match.count, cap));
    out->push_back(std::move(rec));
  }
  stats_.recommendations += matches_.size();
  if (cap > 0 && !matches_.empty()) CollectWitnesses(cap, out->data() + first);
  clock.Lap(PlanStage::kEmit);
  clock.Finish();
}

void QueryStage::CollectWitnesses(size_t cap, Recommendation* recs) {
  for (const ThresholdMatch& match : matches_) {
    kept_[match.id >> 6] |= uint64_t{1} << (match.id & 63);
  }
  const BitsetView kept{kept_.data(), kept_.size()};
  // A list is sorted, so its kept ids come in match order and each record
  // lookup resumes where the previous one stopped.
  for (size_t i = 0; i < lists_.size(); ++i) {
    auto next = matches_.begin();
    for (const VertexId v : lists_[i]) {
      if (!kept.Test(v)) continue;
      next = std::lower_bound(
          next, matches_.end(), v,
          [](const ThresholdMatch& m, VertexId id) { return m.id < id; });
      std::vector<VertexId>& witnesses =
          recs[next - matches_.begin()].witnesses;
      if (witnesses.size() < cap) witnesses.push_back(list_sources_[i]);
    }
  }
  for (size_t r = 0; r < matches_.size(); ++r) {
    kept_[matches_[r].id >> 6] = 0;
    std::sort(recs[r].witnesses.begin(), recs[r].witnesses.end());
  }
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
