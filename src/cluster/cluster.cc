#include "cluster/cluster.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "cluster/transport.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs {

std::string ReplicaStats::ToString() const {
  return StrFormat("p%u/r%u %s events=%llu queries=%llu recs=%llu", partition,
                   replica, alive ? "alive" : "dead",
                   static_cast<unsigned long long>(detector_events),
                   static_cast<unsigned long long>(threshold_queries),
                   static_cast<unsigned long long>(recommendations));
}

std::string PartitionHealth::ToString() const {
  const std::string which =
      partition == UINT32_MAX ? "all" : StrFormat("p%u", partition);
  return StrFormat(
      "%s missed=%llu (consecutive=%llu)", which.c_str(),
      static_cast<unsigned long long>(gathers_missed_total),
      static_cast<unsigned long long>(gathers_missed_consecutive));
}

Cluster::Cluster(const ClusterOptions& options, HashPartitioner partitioner)
    : options_(options), partitioner_(partitioner) {}

int Cluster::LocalPartitionIndex(uint32_t partition) const {
  if (options_.group_size > 0) {
    return partition == options_.group_partition ? 0 : -1;
  }
  return partition < owned_partitions_.size() ? static_cast<int>(partition)
                                              : -1;
}

Cluster::~Cluster() { Stop(); }

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

  // The partitioner always spans the full deployment, so a group member's
  // shard cut matches the same partition of a single all-hosting process.
  HashPartitioner partitioner(
      group_mode ? options.group_size : options.num_partitions,
      options.partitioner_salt);
  std::unique_ptr<Cluster> cluster(new Cluster(options, partitioner));
  if (group_mode) {
    cluster->owned_partitions_ = {options.group_partition};
  } else {
    for (uint32_t p = 0; p < options.num_partitions; ++p) {
      cluster->owned_partitions_.push_back(p);
    }
  }

  // Offline pipeline: influencer cap, invert to the follower index, then
  // cut one shard per hosted partition. Replicas share the immutable shard.
  MAGICRECS_ASSIGN_OR_RETURN(
      const StaticGraph capped,
      RecommenderEngine::ApplyInfluencerCap(follow_graph,
                                            options.max_influencers_per_user));
  const StaticGraph full_follower_index = capped.Transpose();

  cluster->servers_.resize(cluster->owned_partitions_.size());
  for (size_t i = 0; i < cluster->owned_partitions_.size(); ++i) {
    const uint32_t p = cluster->owned_partitions_[i];
    MAGICRECS_ASSIGN_OR_RETURN(
        StaticGraph shard,
        BuildPartitionShard(full_follower_index, partitioner, p));
    shard.BuildHubIndex();
    // Replicas of a partition share the immutable shard; each owns its D.
    auto shared_shard = std::make_shared<const StaticGraph>(std::move(shard));
    for (uint32_t r = 0; r < options.replicas_per_partition; ++r) {
      MAGICRECS_ASSIGN_OR_RETURN(
          std::unique_ptr<PartitionServer> server,
          PartitionServer::CreateWithShard(shared_shard, p, options.detector));
      cluster->servers_[i].push_back(std::move(server));
    }
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
    // previous incarnation. Rebuild every replica's D from it (a cold start
    // replays nothing) and resume sequence assignment after the last durable
    // event — reassigning from 0 would corrupt the log's sequence order and
    // make later recoveries skip the new events as "already covered".
    RecoveryManager recovery(options.persist);
    uint64_t resume_sequence = cluster->wal_->recovered_next_sequence();
    for (auto& partition : cluster->servers_) {
      for (auto& server : partition) {
        RecoveryStats stats;
        MAGICRECS_RETURN_IF_ERROR(
            recovery.RecoverPartitionServer(server.get(), &stats));
        resume_sequence = std::max(resume_sequence, stats.next_sequence);
      }
    }
    cluster->next_sequence_.store(resume_sequence, std::memory_order_release);
  }
  return cluster;
}

bool Cluster::ShouldEmit(uint32_t local, uint32_t replica,
                         uint64_t sequence) const {
  const uint64_t mask = alive_masks_[local]->load(std::memory_order_acquire);
  if ((mask & (uint64_t{1} << replica)) == 0) return false;
  const int alive = std::popcount(mask);
  if (alive == 0) return false;
  // Rank of this replica among the alive ones.
  const uint64_t below = mask & ((uint64_t{1} << replica) - 1);
  const int rank = std::popcount(below);
  return sequence % static_cast<uint64_t>(alive) ==
         static_cast<uint64_t>(rank);
}

Status Cluster::OnEdge(VertexId src, VertexId dst, Timestamp t,
                       std::vector<Recommendation>* out) {
  EdgeEvent event;
  event.edge = TimestampedEdge{src, dst, t};
  return OnEdgeEvent(event, out);
}

Status Cluster::AssignSequenceAndLogBatch(std::span<EdgeEvent> events) {
  const auto assign = [&] {
    uint64_t sequence =
        next_sequence_.fetch_add(events.size(), std::memory_order_relaxed);
    for (EdgeEvent& event : events) event.sequence = sequence++;
  };
  if (wal_ == nullptr) {
    assign();
    return Status::OK();
  }
  // Sequence assignment and the WAL append must be one atomic step: a log
  // ordered by sequence is what lets replay resume from a snapshot cutoff.
  // One wal_mu_ round-trip covers the whole wire batch.
  std::lock_guard<std::mutex> lock(wal_mu_);
  assign();
  for (const EdgeEvent& event : events) {
    MAGICRECS_RETURN_IF_ERROR(wal_->Append(event));
  }
  return Status::OK();
}

Status Cluster::ApplyInline(const EdgeEvent& event,
                            std::vector<Recommendation>* out) {
  for (size_t i = 0; i < servers_.size(); ++i) {
    const uint64_t mask = alive_masks_[i]->load(std::memory_order_acquire);
    const Stopwatch apply_timer;
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      if ((mask & (uint64_t{1} << r)) == 0) continue;  // dead: misses event
      const bool emit = ShouldEmit(static_cast<uint32_t>(i), r,
                                   event.sequence);
      const Status s = servers_[i][r]->OnEvent(event, emit, out);
      if (!s.ok()) {
        apply_errors_[i]->Increment();
        return s;
      }
    }
    apply_histograms_[i]->Record(apply_timer.ElapsedMicros());
  }
  return Status::OK();
}

Status Cluster::OnEdgeEvent(EdgeEvent event,
                            std::vector<Recommendation>* out) {
  if (running_) {
    return Status::FailedPrecondition(
        "inline OnEdge cannot be mixed with threaded mode");
  }
  MAGICRECS_RETURN_IF_ERROR(AssignSequenceAndLogBatch(std::span(&event, 1)));
  events_published_.fetch_add(1, std::memory_order_relaxed);
  return ApplyInline(event, out);
}

Status Cluster::OnEdgeEventBatch(std::span<const EdgeEvent> events,
                                 std::vector<Recommendation>* out) {
  if (running_) {
    return Status::FailedPrecondition(
        "inline OnEdge cannot be mixed with threaded mode");
  }
  if (events.empty()) return Status::OK();
  std::vector<EdgeEvent> batch(events.begin(), events.end());
  MAGICRECS_RETURN_IF_ERROR(AssignSequenceAndLogBatch(batch));
  events_published_.fetch_add(batch.size(), std::memory_order_relaxed);
  for (const EdgeEvent& event : batch) {
    MAGICRECS_RETURN_IF_ERROR(ApplyInline(event, out));
  }
  return Status::OK();
}

Status Cluster::Start() {
  if (running_) return Status::FailedPrecondition("cluster already running");
  const uint32_t local_partitions = static_cast<uint32_t>(servers_.size());
  inboxes_.clear();
  consumed_.clear();
  inboxes_.resize(local_partitions);
  for (uint32_t i = 0; i < local_partitions; ++i) {
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      inboxes_[i].push_back(
          std::make_unique<Inbox>(options_.inbox_capacity));
      consumed_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    }
  }
  running_ = true;
  for (uint32_t i = 0; i < local_partitions; ++i) {
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      workers_.emplace_back([this, i, r] { WorkerLoop(i, r); });
    }
  }
  return Status::OK();
}

Status Cluster::Publish(EdgeEvent event) {
  return PublishBatch(std::span<const EdgeEvent>(&event, 1));
}

Status Cluster::PublishBatch(std::span<const EdgeEvent> events) {
  if (!running_) {
    return Status::FailedPrecondition("cluster is not running; call Start()");
  }
  if (events.empty()) return Status::OK();
  // The one copy of the batch, in one allocation: make_shared of an array
  // puts the reference count and the events in a single block. Every
  // replica inbox shares it, and the last worker to pop it frees it.
  const size_t size = events.size();
  std::shared_ptr<EdgeEvent[]> batch = std::make_shared<EdgeEvent[]>(size);
  std::copy(events.begin(), events.end(), batch.get());
  MAGICRECS_RETURN_IF_ERROR(
      AssignSequenceAndLogBatch(std::span(batch.get(), size)));
  const std::shared_ptr<const EdgeEvent[]> sequenced = std::move(batch);
  for (auto& partition_inboxes : inboxes_) {
    for (auto& inbox : partition_inboxes) {
      if (!inbox->Push(InboxBatch{sequenced, size, Stopwatch()}, size)) {
        return Status::Aborted("cluster stopped during publish");
      }
    }
  }
  events_published_.fetch_add(size, std::memory_order_release);
  return Status::OK();
}

void Cluster::WorkerLoop(uint32_t local, uint32_t replica) {
  auto& inbox = *inboxes_[local][replica];
  auto& consumed =
      *consumed_[local * options_.replicas_per_partition + replica];
  PartitionServer& server = *servers_[local][replica];
  const uint64_t self = uint64_t{1} << replica;
  std::vector<Recommendation> gathered;
  while (true) {
    std::optional<InboxBatch> batch = inbox.Pop();
    if (!batch.has_value()) return;  // closed and drained
    inbox_wait_histograms_[local]->Record(batch->queued.ElapsedMicros());
    gathered.clear();
    for (const EdgeEvent& event : std::span(batch->events.get(), batch->size)) {
      // Per event, so a KillReplica takes effect mid-batch.
      const uint64_t mask =
          alive_masks_[local]->load(std::memory_order_acquire);
      if ((mask & self) == 0) continue;
      const bool emit = ShouldEmit(local, replica, event.sequence);
      const Stopwatch apply_timer;
      // No caller waits on this event: a failed apply is only counted, and
      // the rest of the batch still applies.
      if (!server.OnEvent(event, emit, &gathered).ok()) {
        apply_errors_[local]->Increment();
      }
      apply_histograms_[local]->Record(apply_timer.ElapsedMicros());
    }
    if (!gathered.empty()) {
      std::lock_guard<std::mutex> lock(results_mu_);
      results_.insert(results_.end(),
                      std::make_move_iterator(gathered.begin()),
                      std::make_move_iterator(gathered.end()));
    }
    // seq_cst pairs with Drain(): either this worker sees the waiter's
    // registration and notifies, or the waiter's predicate sees this
    // increment — no missed wakeup, no sleep-polling.
    consumed.fetch_add(batch->size, std::memory_order_seq_cst);
    if (drain_waiters_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(drain_mu_);
      drain_cv_.notify_all();
    }
  }
}

void Cluster::Drain() {
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
  if (!running_) return;
  for (auto& partition_inboxes : inboxes_) {
    for (auto& inbox : partition_inboxes) inbox->Close();
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  running_ = false;
  if (wal_ != nullptr) {
    std::lock_guard<std::mutex> lock(wal_mu_);
    const Status s = wal_->Sync();
    (void)s;  // shutdown path; durability loss is bounded by the OS buffer
  }
}

std::vector<Recommendation> Cluster::TakeRecommendations() {
  std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<Recommendation> out;
  out.swap(results_);
  return out;
}

Status Cluster::KillReplica(uint32_t partition, uint32_t replica) {
  const int local = LocalPartitionIndex(partition);
  if (local < 0 || replica >= options_.replicas_per_partition) {
    return Status::InvalidArgument(
        StrFormat("no such replica: partition %u replica %u is not hosted "
                  "here (%s)",
                  partition, replica,
                  is_partition_group_member() ? "partition-group member"
                                              : "out of range"));
  }
  alive_masks_[local]->fetch_and(~(uint64_t{1} << replica),
                                 std::memory_order_acq_rel);
  return Status::OK();
}

Status Cluster::RecoverReplica(uint32_t partition, uint32_t replica,
                               RecoveryStats* recovery_stats) {
  const int local = LocalPartitionIndex(partition);
  if (local < 0 || replica >= options_.replicas_per_partition) {
    return Status::InvalidArgument(
        StrFormat("no such replica: partition %u replica %u is not hosted "
                  "here (%s)",
                  partition, replica,
                  is_partition_group_member() ? "partition-group member"
                                              : "out of range"));
  }
  const uint64_t mask = alive_masks_[local]->load(std::memory_order_acquire);
  if ((mask & (uint64_t{1} << replica)) != 0) {
    return Status::AlreadyExists("replica is already alive");
  }
  if (options_.persist.enabled()) {
    // Authoritative re-sync from durable state: drop whatever pre-crash D
    // the replica still holds, load the newest snapshot, replay the WAL
    // tail. Works even when the whole partition group died.
    {
      std::lock_guard<std::mutex> lock(wal_mu_);
      MAGICRECS_RETURN_IF_ERROR(wal_->Sync());
    }
    RecoveryManager recovery(options_.persist);
    MAGICRECS_RETURN_IF_ERROR(recovery.RecoverPartitionServer(
        servers_[local][replica].get(), recovery_stats));
  } else {
    // Bootstrap D from any healthy peer; without one, the replica rejoins
    // with the state it last had (cold start on an empty partition group).
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      if (r != replica && (mask & (uint64_t{1} << r)) != 0) {
        MAGICRECS_RETURN_IF_ERROR(
            servers_[local][replica]->SyncDynamicStateFrom(
                *servers_[local][r]));
        break;
      }
    }
  }
  alive_masks_[local]->fetch_or(uint64_t{1} << replica,
                                std::memory_order_acq_rel);
  return Status::OK();
}

Status Cluster::Checkpoint(Timestamp created_at) {
  if (!options_.persist.enabled()) {
    return Status::FailedPrecondition("cluster has no persistence configured");
  }
  // D is replicated whole into every partition and every alive replica has
  // applied every published event once the cluster is quiesced, so any
  // alive replica's detector is the canonical dynamic state.
  const PartitionServer* source = nullptr;
  for (size_t i = 0; i < servers_.size() && source == nullptr; ++i) {
    const uint64_t mask = alive_masks_[i]->load(std::memory_order_acquire);
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      if ((mask & (uint64_t{1} << r)) != 0) {
        source = servers_[i][r].get();
        break;
      }
    }
  }
  if (source == nullptr) {
    return Status::Unavailable("no alive replica to snapshot from");
  }
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    MAGICRECS_RETURN_IF_ERROR(wal_->Sync());
  }
  RecoveryManager recovery(options_.persist);
  return recovery.Checkpoint(source->motif_engine(), /*follower_index=*/nullptr,
                             source->partition_id(),
                             next_sequence_.load(std::memory_order_acquire),
                             created_at);
}

uint32_t Cluster::alive_replicas(uint32_t partition) const {
  const int local = LocalPartitionIndex(partition);
  assert(local >= 0 && "partition is not hosted by this cluster");
  return static_cast<uint32_t>(
      std::popcount(alive_masks_[local]->load(std::memory_order_acquire)));
}

const PartitionServer& Cluster::server(uint32_t partition,
                                       uint32_t replica) const {
  const int local = LocalPartitionIndex(partition);
  assert(local >= 0 && "partition is not hosted by this cluster");
  return *servers_[local][replica];
}

size_t Cluster::TotalStaticMemory() const {
  size_t total = 0;
  for (const auto& partition : servers_) {
    for (const auto& server : partition) total += server->StaticMemoryUsage();
  }
  return total;
}

size_t Cluster::TotalDynamicMemory() const {
  size_t total = 0;
  for (const auto& partition : servers_) {
    for (const auto& server : partition) {
      total += server->DynamicMemoryUsage();
    }
  }
  return total;
}

std::vector<ReplicaStats> Cluster::PerReplicaStats() const {
  std::vector<ReplicaStats> out;
  out.reserve(servers_.size() * options_.replicas_per_partition);
  for (size_t i = 0; i < servers_.size(); ++i) {
    const uint64_t mask = alive_masks_[i]->load(std::memory_order_acquire);
    for (uint32_t r = 0; r < options_.replicas_per_partition; ++r) {
      const MotifEngineStats& s = servers_[i][r]->stats();
      ReplicaStats entry;
      entry.partition = owned_partitions_[i];
      entry.replica = r;
      entry.alive = (mask & (uint64_t{1} << r)) != 0;
      entry.detector_events = s.events;
      entry.threshold_queries = s.threshold_queries;
      entry.recommendations = s.recommendations;
      out.push_back(entry);
    }
  }
  return out;
}

MotifEngineStats Cluster::AggregatedStats() const {
  MotifEngineStats total;
  for (const auto& partition : servers_) {
    for (const auto& server : partition) {
      const MotifEngineStats& s = server->stats();
      total.events += s.events;
      total.filtered_by_action += s.filtered_by_action;
      total.threshold_queries += s.threshold_queries;
      total.raw_candidates += s.raw_candidates;
      total.recommendations += s.recommendations;
      total.suppressed_existing += s.suppressed_existing;
      total.suppressed_self += s.suppressed_self;
      total.query_micros.Merge(s.query_micros);
      total.intersection_sizes.Merge(s.intersection_sizes);
    }
  }
  return total;
}

}  // namespace magicrecs
