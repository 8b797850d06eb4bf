// A scriptable ClusterTransport for server-loop and session tests: canned
// recommendations for gathers, queued ones each handed out once, optional
// gates that park Drain or
// PublishBatch calls until released (to hold a request in flight
// deliberately), scripted publish rejections, a settable placement, a
// record of the order the calls arrived in, and counters.
// Lets the net tests exercise scheduling, partial I/O, and multiplexing
// without hauling a real detector workload into every case.

#ifndef MAGICRECS_TESTS_NET_STUB_TRANSPORT_H_
#define MAGICRECS_TESTS_NET_STUB_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/transport.h"

namespace magicrecs::net_test {

class StubTransport : public ClusterTransport {
 public:
  StubTransport() = default;

  /// The placement an RpcServer started after this call sends in its hello
  /// replies (default: all-hosting, no group size, salt 0).
  void set_placement(const Placement& placement) { placement_ = placement; }

  /// Every future TakeRecommendations returns a copy of `recs`.
  void set_recommendations(std::vector<Recommendation> recs) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_ = std::move(recs);
  }

  /// Queues `recs` for the next TakeRecommendations only, as a Cluster's
  /// take moves its results out; they follow the canned ones.
  void AddRecommendations(const std::vector<Recommendation>& recs) {
    std::lock_guard<std::mutex> lock(mu_);
    queued_.insert(queued_.end(), recs.begin(), recs.end());
  }

  /// Once set, Drain calls block until Release().
  void GateDrains() { gate_drains_.store(true, std::memory_order_release); }

  /// Once set, PublishBatch calls block until Release().
  void GatePublishes() {
    gate_publishes_.store(true, std::memory_order_release);
  }

  /// The next `n` PublishBatch calls fail with InvalidArgument, applying
  /// and recording nothing.
  void RejectPublishes(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    rejections_ += n;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  /// True once at least one Drain is parked at the gate.
  bool drain_blocked() const {
    return drains_blocked_.load(std::memory_order_acquire) > 0;
  }

  /// True once at least one PublishBatch is parked at the gate.
  bool publish_blocked() const {
    return publishes_blocked_.load(std::memory_order_acquire) > 0;
  }

  uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

  /// One letter per order-sensitive call, in the order the calls arrived:
  /// P publish, D drain, C checkpoint, K kill-replica, R recover-replica.
  std::string call_order() {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

  /// Every published event, in the order the batches arrived.
  std::vector<EdgeEvent> published() {
    std::lock_guard<std::mutex> lock(mu_);
    return published_;
  }

  Status PublishBatch(std::span<const EdgeEvent> events) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (rejections_ > 0) {
        rejections_--;
        return Status::InvalidArgument("scripted publish rejection");
      }
      calls_ += 'P';
      published_.insert(published_.end(), events.begin(), events.end());
    }
    publishes_.fetch_add(events.size(), std::memory_order_relaxed);
    if (gate_publishes_.load(std::memory_order_acquire)) {
      WaitAtGate(&publishes_blocked_);
    }
    return Status::OK();
  }

  Status Drain() override {
    Record('D');
    if (gate_drains_.load(std::memory_order_acquire)) {
      WaitAtGate(&drains_blocked_);
    }
    return Status::OK();
  }

  Result<std::vector<Recommendation>> TakeRecommendations() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Recommendation> recs = recs_;
    recs.insert(recs.end(), queued_.begin(), queued_.end());
    queued_.clear();
    return recs;
  }

  Status Checkpoint(Timestamp) override {
    Record('C');
    return Status::OK();
  }
  Status KillReplica(uint32_t, uint32_t) override {
    Record('K');
    return Status::OK();
  }
  Status RecoverReplica(uint32_t, uint32_t) override {
    Record('R');
    return Status::OK();
  }

  Placement placement() const override { return placement_; }

  Status Close() override { return Status::OK(); }

 private:
  void Record(char call) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_ += call;
  }

  void WaitAtGate(std::atomic<int>* blocked) {
    blocked->fetch_add(1, std::memory_order_acq_rel);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return released_; });
  }

  Placement placement_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  int rejections_ = 0;
  std::atomic<bool> gate_drains_{false};
  std::atomic<bool> gate_publishes_{false};
  std::atomic<int> drains_blocked_{0};
  std::atomic<int> publishes_blocked_{0};
  std::atomic<uint64_t> publishes_{0};
  std::string calls_;
  std::vector<EdgeEvent> published_;
  std::vector<Recommendation> recs_;
  std::vector<Recommendation> queued_;
};

}  // namespace magicrecs::net_test

#endif  // MAGICRECS_TESTS_NET_STUB_TRANSPORT_H_
