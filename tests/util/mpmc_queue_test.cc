#include "util/mpmc_queue.h"

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace magicrecs {
namespace {

TEST(MpmcQueueTest, FifoOrderSingleThread) {
  MpmcQueue<int> q;
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
}

TEST(MpmcQueueTest, TryPopOnEmptyReturnsNullopt) {
  MpmcQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, TryPushRespectsCapacity) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(MpmcQueueTest, PopAfterCloseDrainsThenEnds) {
  MpmcQueue<int> q;
  q.Push(7);
  q.Close();
  EXPECT_EQ(q.Pop(), 7);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, PushAfterCloseFails) {
  MpmcQueue<int> q;
  q.Close();
  EXPECT_FALSE(q.Push(1));
  EXPECT_FALSE(q.TryPush(1));
}

TEST(MpmcQueueTest, CloseIsIdempotent) {
  MpmcQueue<int> q;
  q.Close();
  q.Close();
  EXPECT_TRUE(q.closed());
}

TEST(MpmcQueueTest, CloseUnblocksWaitingConsumer) {
  MpmcQueue<int> q;
  std::thread consumer([&] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
}

TEST(MpmcQueueTest, BoundedPushBlocksUntilSpace) {
  MpmcQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop(), 2);
}

TEST(MpmcQueueTest, ManyProducersManyConsumersDeliverEverythingOnce) {
  MpmcQueue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2'000;

  std::atomic<int64_t> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (true) {
        auto v = q.Pop();
        if (!v.has_value()) return;
        sum.fetch_add(*v);
        consumed.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : threads) t.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), static_cast<int64_t>(total) * (total - 1) / 2);
}

TEST(MpmcQueueTest, EveryItemDeliveredExactlyOnceUnderContention) {
  // Stronger than sum-accounting: a per-item delivery counter catches both
  // lost and duplicated items.
  MpmcQueue<int> q(16);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 1'000;
  constexpr int kTotal = kProducers * kPerProducer;

  std::vector<std::atomic<int>> delivered(kTotal);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        auto v = q.Pop();
        if (!v.has_value()) return;
        delivered[static_cast<size_t>(*v)].fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(delivered[static_cast<size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(MpmcQueueTest, CloseReleasesBlockedProducers) {
  MpmcQueue<int> q(1);
  ASSERT_TRUE(q.Push(0));  // full: every further Push blocks
  constexpr int kBlocked = 3;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kBlocked; ++p) {
    producers.emplace_back([&] {
      if (!q.Push(1)) rejected.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rejected.load(), 0);  // all still blocked on backpressure
  q.Close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kBlocked);
  // The item enqueued before Close drains normally.
  EXPECT_EQ(q.Pop(), 0);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, BoundedCapacityIsNeverExceeded) {
  constexpr size_t kCapacity = 8;
  MpmcQueue<int> q(kCapacity);
  std::atomic<bool> overflow{false};
  std::atomic<bool> stop{false};
  std::thread watcher([&] {
    while (!stop.load()) {
      if (q.size() > kCapacity) overflow.store(true);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 2'000; ++i) ASSERT_TRUE(q.Push(i));
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (q.Pop().has_value()) {
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  stop.store(true);
  watcher.join();
  EXPECT_FALSE(overflow.load());
}

TEST(MpmcQueueTest, TryVariantsUnderContentionLoseNothing) {
  MpmcQueue<int> q(4);
  constexpr int kTotal = 5'000;
  std::atomic<int> consumed{0};
  std::thread producer([&] {
    for (int i = 0; i < kTotal; ++i) {
      while (!q.TryPush(i)) std::this_thread::yield();
    }
  });
  std::thread consumer([&] {
    while (consumed.load() < kTotal) {
      if (q.TryPop().has_value()) {
        consumed.fetch_add(1);
      } else {
        std::this_thread::yield();
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed.load(), kTotal);
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpmcQueueTest, CapacityCountsItemWeight) {
  MpmcQueue<int> q(10);
  EXPECT_TRUE(q.TryPush(1, 6));
  EXPECT_FALSE(q.TryPush(2, 5));  // 6 + 5 > 10
  EXPECT_TRUE(q.TryPush(3, 4));   // exactly full
  EXPECT_FALSE(q.TryPush(4, 1));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop(), 1);          // frees 6 of the 10
  EXPECT_TRUE(q.TryPush(2, 5));
  EXPECT_FALSE(q.TryPush(5, 2));  // 4 + 5 + 2 > 10
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_EQ(q.Pop(), 2);
}

TEST(MpmcQueueTest, WeightedPushBlocksUntilItFits) {
  MpmcQueue<int> q(4);
  ASSERT_TRUE(q.Push(1, 3));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2, 2));  // 3 + 2 > 4: waits for the pop
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop(), 2);
}

TEST(MpmcQueueTest, OversizedItemEntersAnEmptyQueueAlone) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1, 9));  // heavier than the capacity, queue empty
  EXPECT_FALSE(q.TryPush(2, 1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(3, 9));  // waits until the queue is empty again
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Pop(), 3);
}

TEST(MpmcQueueTest, CloseReleasesABlockedWeightedPush) {
  MpmcQueue<int> q(4);
  ASSERT_TRUE(q.Push(1, 3));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.Push(2, 2));
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, MoveOnlyPayloads) {
  MpmcQueue<std::unique_ptr<int>> q;
  q.Push(std::make_unique<int>(9));
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 9);
}

}  // namespace
}  // namespace magicrecs
