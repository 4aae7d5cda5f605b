// Unit tests for the lock-free building blocks under the mp fast path:
// the Vyukov MPSC mailbox queue and the bounded MPMC run-queue ring. These
// pin the properties the ActorRuntime's scheduling invariant leans on —
// per-producer FIFO, no lost or duplicated nodes, and kRetry (never
// kEmpty) during a producer's mid-push window. The mailbox nodes are the
// response cells' own; tests/mp_network_service_test.cpp pins their pool.
#include "mp/mpsc_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace cnet::mp {
namespace {

/// Drains one item, asserting the queue never claims empty while `expect`
/// items remain (kRetry is acceptable: a producer may be mid-push).
Message pop_one(MpscQueue& queue) {
  for (;;) {
    MpscNode* node = nullptr;
    const MpscQueue::Pop result = queue.pop(&node);
    if (result == MpscQueue::Pop::kItem) return node->msg;
    std::this_thread::yield();
  }
}

TEST(MpMpscQueue, SingleThreadFifo) {
  MpscQueue queue;
  std::vector<MpscNode> nodes(100);
  for (std::uint64_t i = 0; i < nodes.size(); ++i) {
    nodes[i].msg = Message{i, nullptr};
    queue.push(&nodes[i]);
  }
  for (std::uint64_t i = 0; i < nodes.size(); ++i) {
    MpscNode* node = nullptr;
    ASSERT_EQ(queue.pop(&node), MpscQueue::Pop::kItem);
    EXPECT_EQ(node->msg.payload, i);
  }
  MpscNode* node = nullptr;
  EXPECT_EQ(queue.pop(&node), MpscQueue::Pop::kEmpty);
  EXPECT_FALSE(queue.maybe_nonempty());
}

TEST(MpMpscQueue, StubCyclingSurvivesAlternatingPushPop) {
  // One-element regime exercises the stub hand-off on every operation.
  MpscQueue queue;
  MpscNode node;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    node.msg = Message{i, nullptr};
    queue.push(&node);
    EXPECT_TRUE(queue.maybe_nonempty());
    EXPECT_EQ(pop_one(queue).payload, i);
    MpscNode* out = nullptr;
    EXPECT_EQ(queue.pop(&out), MpscQueue::Pop::kEmpty);
  }
}

TEST(MpMpscQueue, ManyProducersPreservePerProducerOrderAndLoseNothing) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  MpscQueue queue;
  // Pre-allocated node storage: nodes are recycled only after consumption,
  // so each producer owns a disjoint slice.
  std::vector<MpscNode> nodes(kProducers * kPerProducer);
  std::vector<std::uint64_t> next_expected(kProducers, 0);
  std::vector<std::uint64_t> popped;
  popped.reserve(nodes.size());

  std::jthread consumer([&] {
    while (popped.size() < nodes.size()) {
      MpscNode* node = nullptr;
      if (queue.pop(&node) != MpscQueue::Pop::kItem) {
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t producer = node->msg.payload / kPerProducer;
      const std::uint64_t seq = node->msg.payload % kPerProducer;
      EXPECT_EQ(seq, next_expected[producer]) << "FIFO broken for producer " << producer;
      next_expected[producer] = seq + 1;
      popped.push_back(node->msg.payload);
    }
  });
  {
    std::vector<std::jthread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&queue, &nodes, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          MpscNode& node = nodes[p * kPerProducer + i];
          node.msg = Message{p * kPerProducer + i, nullptr};
          queue.push(&node);
        }
      });
    }
  }
  consumer.join();
  // Drain-all: every pushed payload came out exactly once.
  std::sort(popped.begin(), popped.end());
  ASSERT_EQ(popped.size(), nodes.size());
  for (std::uint64_t i = 0; i < popped.size(); ++i) EXPECT_EQ(popped[i], i);
}

TEST(MpMpscQueue, MaybeNonemptyTracksContent) {
  MpscQueue queue;
  EXPECT_FALSE(queue.maybe_nonempty());
  MpscNode a;
  MpscNode b;
  queue.push(&a);
  queue.push(&b);
  EXPECT_TRUE(queue.maybe_nonempty());
  pop_one(queue);
  EXPECT_TRUE(queue.maybe_nonempty());  // b still queued
  pop_one(queue);
  EXPECT_FALSE(queue.maybe_nonempty());
}

TEST(MpRunQueue, PushPopRoundTripsFifo) {
  MpmcRing ring;
  ring.init(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99)) << "ring accepted a push past capacity";
  for (std::uint32_t i = 0; i < 8; ++i) {
    std::uint32_t value = 0;
    ASSERT_TRUE(ring.pop(&value));
    EXPECT_EQ(value, i);
  }
  std::uint32_t value = 0;
  EXPECT_FALSE(ring.pop(&value)) << "ring popped from empty";
}

TEST(MpRunQueue, InitRoundsCapacityUp) {
  MpmcRing ring;
  ring.init(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(MpRunQueue, ConcurrentPushersAndStealersLoseNothing) {
  // The runtime's usage: several threads push actor ids, several pop
  // (own-shard drain + steals). Every pushed id must come out exactly once.
  constexpr std::uint32_t kPushers = 3;
  constexpr std::uint32_t kPoppers = 3;
  constexpr std::uint32_t kPerPusher = 20000;
  MpmcRing ring;
  ring.init(kPushers * kPerPusher);  // never full: push cannot fail

  std::vector<std::vector<std::uint32_t>> taken(kPoppers);
  std::atomic<std::uint32_t> total_taken{0};
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kPoppers; ++t) {
      threads.emplace_back([&ring, &taken, &total_taken, t] {
        while (total_taken.load(std::memory_order_relaxed) < kPushers * kPerPusher) {
          std::uint32_t value = 0;
          if (ring.pop(&value)) {
            taken[t].push_back(value);
            total_taken.fetch_add(1, std::memory_order_relaxed);
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
    for (std::uint32_t p = 0; p < kPushers; ++p) {
      threads.emplace_back([&ring, p] {
        for (std::uint32_t i = 0; i < kPerPusher; ++i) {
          ASSERT_TRUE(ring.push(p * kPerPusher + i));
        }
      });
    }
  }
  std::vector<std::uint32_t> all;
  for (auto& v : taken) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kPushers) * kPerPusher);
  for (std::uint32_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
}

}  // namespace
}  // namespace cnet::mp
