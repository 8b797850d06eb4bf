#include "cluster/cluster.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "cluster/shard_cut.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs {

Cluster::Cluster(const ClusterOptions& options, HashPartitioner partitioner,
                 const MotifPlan& plan)
    : options_(options),
      partitioner_(partitioner),
      window_(plan, options.detector) {}

int Cluster::LocalPartitionIndex(uint32_t partition) const {
  if (options_.group_size > 0) {
    return partition == options_.group_partition ? 0 : -1;
  }
  return partition < owned_partitions_.size() ? static_cast<int>(partition)
                                              : -1;
}

Cluster::~Cluster() { Stop(); }

Result<std::unique_ptr<ClusterTransport>> LocalClusterTransport::Create(
    const StaticGraph& follow_graph, const ClusterOptions& options, Mode) {
  MAGICRECS_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                             Cluster::Create(follow_graph, options));
  return std::unique_ptr<ClusterTransport>(std::move(cluster));
}

Result<std::unique_ptr<Cluster>> Cluster::Create(
    const StaticGraph& follow_graph, const ClusterOptions& options) {
  const bool group_mode = options.group_size > 0;
  if (!group_mode && options.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (group_mode && options.group_partition >= options.group_size) {
    return Status::InvalidArgument(StrFormat(
        "group_partition %u out of range for a %u-partition group",
        options.group_partition, options.group_size));
  }
  if (options.replicas_per_partition == 0 ||
      options.replicas_per_partition > 64) {
    return Status::InvalidArgument(
        "replicas_per_partition must be in [1, 64]");
  }
  if (options.inbox_capacity == 0) {
    // Start() splits the capacity into two inboxes, and a zero-capacity
    // MpmcQueue is unbounded: 0 would turn backpressure off.
    return Status::InvalidArgument("inbox_capacity must be >= 1");
  }

  // The partitioner always spans the full deployment, so a group member's
  // shard cut matches the same partition of a single all-hosting process.
  HashPartitioner partitioner(
      group_mode ? options.group_size : options.num_partitions,
      options.partitioner_salt);
  MAGICRECS_ASSIGN_OR_RETURN(const MotifPlan plan,
                             CompileDiamond(options.detector));
  std::unique_ptr<Cluster> cluster(new Cluster(options, partitioner, plan));
  if (group_mode) {
    cluster->owned_partitions_ = {options.group_partition};
  } else {
    for (uint32_t p = 0; p < options.num_partitions; ++p) {
      cluster->owned_partitions_.push_back(p);
    }
  }

  // Offline pipeline: the influencer cap, if any, then one shard per hosted
  // partition, cut as the follower lists of that partition's A's straight
  // from the follow graph, so the full follower index is never built. The
  // shard names each A by its rank among the partition's users, so its hub
  // bitmaps and each replica's count table span only those users. Replicas
  // share the immutable shard and its rank -> id map.
  StaticGraph capped;
  const StaticGraph* graph = &follow_graph;
  if (options.max_influencers_per_user > 0) {
    MAGICRECS_ASSIGN_OR_RETURN(
        capped,
        ApplyInfluencerCap(follow_graph, options.max_influencers_per_user));
    graph = &capped;
  }

  cluster->replicas_.resize(cluster->owned_partitions_.size());
  for (size_t i = 0; i < cluster->owned_partitions_.size(); ++i) {
    const uint32_t p = cluster->owned_partitions_[i];
    StaticGraph shard = graph->TransposeIf(
        [&](VertexId a) { return partitioner.PartitionOf(a) == p; });
    shard.BuildHubIndex();
    cluster->replicas_[i].assign(
        options.replicas_per_partition,
        QueryStage(plan, std::make_shared<const StaticGraph>(std::move(shard)),
                   options.detector));
    auto mask = std::make_unique<std::atomic<uint64_t>>(
        options.replicas_per_partition == 64
            ? ~uint64_t{0}
            : (uint64_t{1} << options.replicas_per_partition) - 1);
    cluster->alive_masks_.push_back(std::move(mask));
    const MetricLabels labels = {{"partition", StrFormat("%u", p)}};
    cluster->apply_histograms_.push_back(
        MetricsRegistry::Default()->GetHistogram("publish_apply_us", labels));
    cluster->inbox_wait_histograms_.push_back(
        MetricsRegistry::Default()->GetHistogram("publish_inbox_wait_us",
                                                 labels));
    cluster->apply_errors_.push_back(
        MetricsRegistry::Default()->GetCounter("publish_apply_errors", labels));
  }

  if (options.persist.enabled()) {
    MAGICRECS_ASSIGN_OR_RETURN(cluster->wal_,
                               WalWriter::Open(options.persist));
    // Restart path: the directory may already hold a snapshot + WAL from a
    // previous incarnation. Rebuild the process's D from it (a cold start
    // replays nothing) and resume sequence assignment after the last durable
    // event — reassigning from 0 would corrupt the log's sequence order and
    // make a later restart skip the new events as "already covered".
    RecoveryStats stats;
    MAGICRECS_RETURN_IF_ERROR(
        RecoveryManager(options.persist)
            .RecoverDynamicState(&cluster->window_, &stats));
    cluster->next_sequence_.store(
        std::max(cluster->wal_->recovered_next_sequence(),
                 stats.next_sequence),
        std::memory_order_release);
  }
  return cluster;
}

bool Cluster::ShouldEmit(uint32_t local, uint32_t replica,
                         uint64_t sequence) const {
  const uint64_t mask = alive_masks_[local]->load(std::memory_order_acquire);
  if ((mask & (uint64_t{1} << replica)) == 0) return false;
  const int alive = std::popcount(mask);  // >= 1: `replica` is alive
  // Rank of this replica among the alive ones.
  const uint64_t below = mask & ((uint64_t{1} << replica) - 1);
  const int rank = std::popcount(below);
  return sequence % static_cast<uint64_t>(alive) ==
         static_cast<uint64_t>(rank);
}

Status Cluster::SequenceAndLog(std::span<EdgeEvent> events) {
  uint64_t sequence =
      next_sequence_.fetch_add(events.size(), std::memory_order_relaxed);
  for (EdgeEvent& event : events) event.sequence = sequence++;
  if (wal_ != nullptr) {
    for (const EdgeEvent& event : events) {
      MAGICRECS_RETURN_IF_ERROR(wal_->Append(event));
    }
  }
  return Status::OK();
}

Status Cluster::Window(WindowedBatch* batch) {
  batch->offsets.assign(1, 0);
  batch->actors.clear();
  Status first_error;
  for (const EdgeEvent& event : batch->events) {
    const TimestampedEdge& e = event.edge;
    Status s = window_.Window(e.src, e.dst, e.created_at, &batch->actors,
                              MotifAction::kFollow,
                              IsTimingSample(event.sequence));
    batch->offsets.push_back(static_cast<uint32_t>(batch->actors.size()));
    if (s.ok()) continue;
    // Logged, so the event stays in the batch; no partition can query it.
    for (Counter* errors : apply_errors_) errors->Increment();
    if (first_error.ok()) first_error = std::move(s);
  }
  return first_error;
}

void Cluster::QueryBatch(uint32_t local, uint32_t replica,
                         const WindowedBatch& batch,
                         std::vector<Recommendation>* gathered) {
  gathered->clear();
  for (size_t i = 0; i < batch.events.size(); ++i) {
    const std::span<const VertexId> actors = batch.ActorsOf(i);
    if (actors.empty()) continue;  // no query: nothing runs, nothing is timed
    const EdgeEvent& event = batch.events[i];
    // The alive mask only changes quiesced (SetAlive), so every replica of
    // the partition reads the same mask for this event.
    if (!ShouldEmit(local, replica, event.sequence)) continue;
    const TimestampedEdge& e = event.edge;
    const bool timed = IsTimingSample(event.sequence);
    const int64_t t0 = timed ? SteadyNowNanos() : 0;
    replicas_[local][replica].Query(e.src, e.dst, e.created_at, actors,
                                    gathered, timed);
    if (timed) {
      apply_histograms_[local]->Record((SteadyNowNanos() - t0) / 1000);
    }
  }
  if (gathered->empty()) return;
  std::lock_guard<std::mutex> lock(results_mu_);
  results_.insert(results_.end(), std::make_move_iterator(gathered->begin()),
                  std::make_move_iterator(gathered->end()));
}

Status Cluster::Start() {
  if (running_) return Status::FailedPrecondition("cluster already running");
  const uint32_t local_partitions = static_cast<uint32_t>(replicas_.size());
  inboxes_.clear();
  consumed_.clear();
  inboxes_.resize(local_partitions);
  // Each replica has consumed everything published before this Start(),
  // inline or in an earlier run, so Drain() waits only for what follows.
  const uint64_t published = events_published_.load(std::memory_order_acquire);
  // The window thread's inbox and each replica inbox split inbox_capacity,
  // so what is queued ahead of a replica stays within it.
  const size_t half = options_.inbox_capacity - options_.inbox_capacity / 2;
  for (uint32_t i = 0; i < local_partitions; ++i) {
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      inboxes_[i].push_back(std::make_unique<Inbox>(half));
      consumed_.push_back(std::make_unique<std::atomic<uint64_t>>(published));
    }
  }
  window_inbox_ = std::make_unique<WindowInbox>(half);
  running_ = true;
  for (uint32_t i = 0; i < local_partitions; ++i) {
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      workers_.emplace_back([this, i, r] { WorkerLoop(i, r); });
    }
  }
  window_worker_ = std::thread([this] { WindowLoop(); });
  return Status::OK();
}

Status Cluster::PublishBatch(std::span<const EdgeEvent> events) {
  std::shared_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("cluster is closed");
  if (events.empty()) return Status::OK();
  if (!running_) return PublishInline(events);
  // The one copy of the batch. Every replica inbox shares it, and the last
  // worker to pop it frees it.
  auto batch = std::make_shared<WindowedBatch>();
  batch->events.assign(events.begin(), events.end());
  {
    // Sequencing, the WAL append and the hand-off to the window thread are
    // one atomic step: a log ordered by sequence is what lets replay resume
    // from a snapshot cutoff, and D must see events in the log's order for
    // replay to rebuild it. One publish_mu_ round-trip covers the batch.
    std::lock_guard<std::mutex> lock(publish_mu_);
    MAGICRECS_RETURN_IF_ERROR(SequenceAndLog(batch->events));
    if (!window_inbox_->Push(std::move(batch), events.size())) {
      return Status::Aborted("cluster stopped during publish");
    }
  }
  events_published_.fetch_add(events.size(), std::memory_order_release);
  return Status::OK();
}

Status Cluster::PublishInline(std::span<const EdgeEvent> events) {
  // The caller's thread runs both halves; publish_mu_ orders concurrent
  // publishers and guards the reused batch.
  std::lock_guard<std::mutex> lock(publish_mu_);
  inline_batch_.events.assign(events.begin(), events.end());
  MAGICRECS_RETURN_IF_ERROR(SequenceAndLog(inline_batch_.events));
  events_published_.fetch_add(events.size(), std::memory_order_release);
  // The whole batch is logged, so the whole batch applies; the first
  // failure is reported once every event has run.
  const Status window_error = Window(&inline_batch_);
  for (uint32_t local = 0; local < replicas_.size(); ++local) {
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      QueryBatch(local, r, inline_batch_, &inline_gathered_);
    }
  }
  return window_error;
}

void Cluster::WindowLoop() {
  while (true) {
    std::optional<std::shared_ptr<WindowedBatch>> batch = window_inbox_->Pop();
    if (!batch.has_value()) return;  // closed and drained
    // A failed window half is counted in publish_apply_errors; the batch is
    // logged, so it still goes out whole.
    (void)Window(batch->get());
    // Actor ids weigh in too, bounding queued memory when most events query.
    const size_t weight = (*batch)->events.size() + (*batch)->actors.size();
    const std::shared_ptr<const WindowedBatch> windowed = std::move(*batch);
    for (auto& partition_inboxes : inboxes_) {
      for (auto& inbox : partition_inboxes) {
        if (!inbox->Push(InboxBatch{windowed, Stopwatch()}, weight)) return;
      }
    }
  }
}

void Cluster::WorkerLoop(uint32_t local, uint32_t replica) {
  auto& inbox = *inboxes_[local][replica];
  auto& consumed =
      *consumed_[local * options_.replicas_per_partition + replica];
  std::vector<Recommendation> gathered;
  while (true) {
    std::optional<InboxBatch> item = inbox.Pop();
    if (!item.has_value()) return;  // closed and drained
    inbox_wait_histograms_[local]->Record(item->queued.ElapsedMicros());
    const WindowedBatch& batch = *item->batch;
    QueryBatch(local, replica, batch, &gathered);
    // seq_cst pairs with Drain(): either this worker sees the waiter's
    // registration and notifies, or the waiter's predicate sees this
    // increment — no missed wakeup, no sleep-polling.
    consumed.fetch_add(batch.events.size(), std::memory_order_seq_cst);
    if (drain_waiters_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(drain_mu_);
      drain_cv_.notify_all();
    }
  }
}

Status Cluster::Drain() {
  std::shared_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("cluster is closed");
  Quiesce();
  return Status::OK();
}

void Cluster::Quiesce() {
  if (!running_) return;
  const uint64_t target = events_published_.load(std::memory_order_acquire);
  const auto all_consumed = [&] {
    for (const auto& consumed : consumed_) {
      if (consumed->load(std::memory_order_seq_cst) < target) return false;
    }
    return true;
  };
  drain_waiters_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, all_consumed);
  }
  drain_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

void Cluster::Stop() {
  if (running_) {
    // The window thread first, so every batch it took reaches the workers.
    window_inbox_->Close();
    window_worker_.join();
    for (auto& partition_inboxes : inboxes_) {
      for (auto& inbox : partition_inboxes) inbox->Close();
    }
    for (auto& worker : workers_) worker.join();
    workers_.clear();
    running_ = false;
  }
  if (wal_ != nullptr) {
    std::lock_guard<std::mutex> lock(publish_mu_);
    const Status s = wal_->Sync();
    (void)s;  // shutdown path; durability loss is bounded by the OS buffer
  }
}

Result<std::vector<Recommendation>> Cluster::TakeRecommendations() {
  std::shared_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("cluster is closed");
  std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<Recommendation> out;
  out.swap(results_);
  return out;
}

Status Cluster::Close() {
  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_.exchange(true)) return Status::OK();
  Stop();
  return Status::OK();
}

Status Cluster::SetAlive(uint32_t partition, uint32_t replica, bool alive) {
  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("cluster is closed");
  Quiesce();
  const int local = LocalPartitionIndex(partition);
  if (local < 0 || replica >= options_.replicas_per_partition) {
    return Status::InvalidArgument(
        StrFormat("no such replica: partition %u replica %u is not hosted "
                  "here (%s)",
                  partition, replica,
                  is_partition_group_member() ? "partition-group member"
                                              : "out of range"));
  }
  const uint64_t bit = uint64_t{1} << replica;
  std::atomic<uint64_t>& mask = *alive_masks_[local];
  if (!alive) {
    mask.fetch_and(~bit, std::memory_order_acq_rel);
  } else if ((mask.fetch_or(bit, std::memory_order_acq_rel) & bit) != 0) {
    return Status::AlreadyExists("replica is already alive");
  }
  return Status::OK();
}

Status Cluster::Checkpoint(Timestamp created_at) {
  // Exclusive: blocks publishers, then quiesces the window thread and the
  // workers, so the snapshot serializes a D no thread is mutating.
  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("cluster is closed");
  Quiesce();
  if (!options_.persist.enabled()) {
    return Status::FailedPrecondition("cluster has no persistence configured");
  }
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    MAGICRECS_RETURN_IF_ERROR(wal_->Sync());
  }
  return RecoveryManager(options_.persist)
      .Checkpoint(window_, owned_partitions_.front(),
                  next_sequence_.load(std::memory_order_relaxed), created_at);
}

Placement Cluster::placement() const {
  Placement placement;
  placement.group_size = num_partitions();
  if (is_partition_group_member()) {
    placement.partition = options_.group_partition;
  }
  placement.salt = partitioner_.salt();
  return placement;
}

Result<std::string> Cluster::GetStatsText() {
  // Scrape-time collector: quiesce, then mirror the aggregates into the
  // process registry. ReplaceWith/RaiseTo/Set — not Merge/Increment —
  // because the mirror re-runs wholesale on every scrape.
  {
    std::unique_lock<std::shared_mutex> state_lock(state_mu_);
    if (closed_) return Status::FailedPrecondition("cluster is closed");
    Quiesce();
    const MotifEngineStats detector = AggregatedStats();
    MetricsRegistry* registry = MetricsRegistry::Default();
    registry->GetCounter("detector_events")->RaiseTo(detector.events);
    registry->GetCounter("detector_threshold_queries")
        ->RaiseTo(detector.threshold_queries);
    registry->GetCounter("detector_recommendations")
        ->RaiseTo(detector.recommendations);
    registry->GetCounter("detector_suppressed_existing")
        ->RaiseTo(detector.suppressed_existing);
    registry->GetCounter("detector_suppressed_self")
        ->RaiseTo(detector.suppressed_self);
    registry->GetHistogram("detector_query_us")
        ->ReplaceWith(detector.query_micros);
    for (size_t stage = 0; stage < kNumPlanStages; ++stage) {
      const std::string op(PlanStageName(static_cast<PlanStage>(stage)));
      registry->GetHistogram("detector_op_ns", {{"op", op}})
          ->ReplaceWith(detector.stage_nanos[stage]);
    }
    registry->GetHistogram("detector_intersection_size")
        ->ReplaceWith(detector.intersection_sizes);
    registry->GetCounter("events_published")->RaiseTo(events_published());
    // The size of the process's one D: gauges, since expiry shrinks D as
    // the window moves.
    registry->GetGauge("dynamic_edges")
        ->Set(static_cast<int64_t>(dynamic_index().stats().current_edges));
    registry->GetGauge("dynamic_bytes")
        ->Set(static_cast<int64_t>(TotalDynamicMemory()));
    registry->GetGauge("static_bytes")
        ->Set(static_cast<int64_t>(TotalStaticMemory()));
    // Each hosted replica, labelled with its global identity.
    for (const ReplicaStats& entry : PerReplicaStats()) {
      const MetricLabels labels = {
          {"partition", StrFormat("%u", entry.partition)},
          {"replica", StrFormat("%u", entry.replica)}};
      registry->GetGauge("replica_alive", labels)->Set(entry.alive ? 1 : 0);
      registry->GetCounter("replica_threshold_queries", labels)
          ->RaiseTo(entry.threshold_queries);
      registry->GetCounter("replica_recommendations", labels)
          ->RaiseTo(entry.recommendations);
    }
  }
  return MetricsRegistry::Default()->RenderText();
}

uint32_t Cluster::alive_replicas(uint32_t partition) const {
  const int local = LocalPartitionIndex(partition);
  assert(local >= 0 && "partition is not hosted by this cluster");
  return static_cast<uint32_t>(
      std::popcount(alive_masks_[local]->load(std::memory_order_acquire)));
}

const QueryStage& Cluster::replica(uint32_t partition,
                                   uint32_t replica) const {
  const int local = LocalPartitionIndex(partition);
  assert(local >= 0 && "partition is not hosted by this cluster");
  return replicas_[local][replica];
}

size_t Cluster::TotalStaticMemory() const {
  size_t total = 0;
  for (const auto& partition : replicas_) {
    for (const QueryStage& stage : partition) {
      total += stage.static_index().MemoryUsage();
    }
  }
  return total;
}

std::string ReplicaStats::ToString() const {
  return StrFormat("p%u/r%u %s events=%llu queries=%llu recs=%llu", partition,
                   replica, alive ? "alive" : "dead",
                   static_cast<unsigned long long>(detector_events),
                   static_cast<unsigned long long>(threshold_queries),
                   static_cast<unsigned long long>(recommendations));
}

std::vector<ReplicaStats> Cluster::PerReplicaStats() const {
  std::vector<ReplicaStats> out;
  out.reserve(replicas_.size() * options_.replicas_per_partition);
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const uint64_t mask = alive_masks_[i]->load(std::memory_order_acquire);
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      const MotifEngineStats& s = replicas_[i][r].stats();
      ReplicaStats entry;
      entry.partition = owned_partitions_[i];
      entry.replica = r;
      entry.alive = (mask & (uint64_t{1} << r)) != 0;
      entry.detector_events = window_.stats().events;
      entry.threshold_queries = s.threshold_queries;
      entry.recommendations = s.recommendations;
      out.push_back(entry);
    }
  }
  return out;
}

MotifEngineStats Cluster::AggregatedStats() const {
  MotifEngineStats total = window_.stats();
  for (const auto& partition : replicas_) {
    for (const QueryStage& stage : partition) total.Merge(stage.stats());
  }
  return total;
}

}  // namespace magicrecs
