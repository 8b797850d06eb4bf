// Bounded multi-producer multi-consumer queue with blocking and non-blocking
// operations and explicit close semantics. This is the in-process stand-in
// for the message queues that carry the edge-creation stream between the
// firehose, brokers, and partition servers.
//
// Mutex + condition variables rather than a lock-free ring: the blocking
// close semantics keep shutdown code simple and obviously correct. The lock
// and wake-up cost is paid per item, so the cluster's replica inboxes carry
// whole publish batches (weighted by their event count), not single events.
// On the serving benchmark's `dense` workload (4-vCPU Xeon VM), one item
// per event drove the daemons to ~700k context switches/s at peak; one item
// per batch, to ~18k/s, with ingest up ~35%.
//
// Capacity counts item weight. Every item weighs 1 unless the producer says
// otherwise, so by default the bound is an item count.

#ifndef MAGICRECS_UTIL_MPMC_QUEUE_H_
#define MAGICRECS_UTIL_MPMC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace magicrecs {

/// Thread-safe bounded FIFO. All methods may be called from any thread.
template <typename T>
class MpmcQueue {
 public:
  /// `capacity` == 0 means unbounded. Otherwise it bounds the total weight
  /// of the queued items.
  explicit MpmcQueue(size_t capacity = 0) : capacity_(capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocks until the item fits: its weight plus the queued weight is within
  /// capacity, or the queue is empty (an item heavier than the capacity
  /// enters alone rather than never). Returns false if the queue was closed.
  bool Push(T item, size_t weight = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || FitsLocked(weight); });
    if (closed_) return false;
    items_.emplace_back(std::move(item), weight);
    weight_ += weight;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false if the item does not fit or the queue
  /// is closed.
  bool TryPush(T item, size_t weight = 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || !FitsLocked(weight)) return false;
      items_.emplace_back(std::move(item), weight);
      weight_ += weight;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and* drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = PopFrontLocked();
    lock.unlock();
    // All waiters: the freed weight may admit a light producer that a
    // single wake-up would have skipped in favour of a heavy one.
    not_full_.notify_all();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::optional<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) return std::nullopt;
      out = PopFrontLocked();
    }
    not_full_.notify_all();
    return out;
  }

  /// After Close(), pushes fail and pops drain the remaining items then
  /// return nullopt. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Number of queued items (not their weight).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  bool FitsLocked(size_t weight) const {
    return capacity_ == 0 || items_.empty() || weight_ + weight <= capacity_;
  }

  T PopFrontLocked() {
    T item = std::move(items_.front().first);
    weight_ -= items_.front().second;
    items_.pop_front();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::pair<T, size_t>> items_;  ///< (item, weight)
  size_t weight_ = 0;
  bool closed_ = false;
};

}  // namespace magicrecs

#endif  // MAGICRECS_UTIL_MPMC_QUEUE_H_
