// Lock-free queues for the actor runtime's fast path.
//
// MpscQueue is Vyukov's intrusive multi-producer/single-consumer queue: a
// producer is one wait-free exchange plus one release store, the consumer
// advances a private cursor and never issues an RMW. The queue owns no
// node: the sender does. mp::NetworkService sends the head cell of each
// wave, whose MpscNode is embedded in the cell (mp/response_cell.h), so a
// send touches no allocator and no lock. One queue is one actor's mailbox;
// the single consumer is whichever worker currently holds the actor's
// SCHEDULED state (actors are serialized, so there is never more than one).
//
// MpmcRing is Vyukov's bounded MPMC array queue, used for the per-worker
// run-queue shards: any thread may push a runnable actor id, the owning
// worker pops from its own shard first and steals from the others when idle.
//
// Memory-ordering note: push() publishes through a seq_cst exchange and the
// deschedule check (maybe_nonempty) reads head_ with seq_cst. Together with
// the seq_cst actor-state transitions in ActorRuntime this forms the classic
// store/load (Dekker) handshake: either a producer observes the consumer's
// IDLE store and schedules the actor, or the consumer's post-IDLE emptiness
// check observes the producer's push and reclaims it. Either way a pushed
// message cannot strand in a descheduled mailbox.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "mp/message.h"
#include "util/assert.h"
#include "util/cacheline.h"

namespace cnet::mp {

/// One mailbox entry, owned by its sender. A node sits in at most one
/// mailbox at a time; once popped, the queue never touches it again.
struct MpscNode {
  std::atomic<MpscNode*> next{nullptr};
  Message msg{};
};

/// Vyukov intrusive MPSC queue. push() from any thread; pop() and
/// maybe_nonempty() from the single current consumer only.
class MpscQueue {
 public:
  MpscQueue() : head_(&stub_), tail_(&stub_) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// What one pop attempt observed. kRetry means a producer has exchanged
  /// head_ but not yet linked its node (the transient mid-push window):
  /// the queue is non-empty but the next node is not reachable yet.
  /// Callers should back off and retry — or requeue the actor — rather
  /// than treat it as empty.
  enum class Pop : std::uint8_t { kItem, kEmpty, kRetry };

  /// Multi-producer enqueue: wait-free (one exchange, one store).
  void push(MpscNode* node) noexcept {
    node->next.store(nullptr, std::memory_order_relaxed);
    MpscNode* prev = head_.exchange(node, std::memory_order_seq_cst);
    prev->next.store(node, std::memory_order_release);
  }

  /// Single-consumer dequeue. On kItem, *out is the data-carrying node; the
  /// queue is done with it, so the caller may push it anywhere again.
  Pop pop(MpscNode** out) noexcept {
    MpscNode* tail = tail_.load(std::memory_order_relaxed);
    MpscNode* next = tail->next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (next == nullptr) {
        return head_.load(std::memory_order_acquire) == &stub_ ? Pop::kEmpty : Pop::kRetry;
      }
      tail_.store(next, std::memory_order_relaxed);
      tail = next;
      next = next->next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      tail_.store(next, std::memory_order_relaxed);
      *out = tail;
      return Pop::kItem;
    }
    // tail is the last linked node. If a producer is past its exchange the
    // queue is longer than it looks; let the caller come back.
    if (tail != head_.load(std::memory_order_acquire)) return Pop::kRetry;
    // Single-element case: cycle the stub behind it so tail can be freed.
    push(&stub_);
    next = tail->next.load(std::memory_order_acquire);
    if (next != nullptr) {
      tail_.store(next, std::memory_order_relaxed);
      *out = tail;
      return Pop::kItem;
    }
    return Pop::kRetry;  // raced with another producer's pending link
  }

  /// Consumer-side emptiness hint for the deschedule handshake: false is
  /// authoritative only after the consumer has stored IDLE (see the header
  /// comment); true may be transiently stale in the other direction.
  /// A *previous* consumer may also run this concurrently with the current
  /// one's pop() — its claim to the actor is already lost, so a stale tail_
  /// only yields a conservative true and a failed reclaim CAS; tail_ is
  /// atomic (relaxed) precisely so that overlap is defined behaviour.
  bool maybe_nonempty() const noexcept {
    return tail_.load(std::memory_order_relaxed) != &stub_ ||
           head_.load(std::memory_order_seq_cst) != &stub_;
  }

 private:
  std::atomic<MpscNode*> head_;  ///< most recently pushed (producers)
  /// Oldest unconsumed node. Written only by the current consumer; the
  /// seq_cst SCHEDULED handoff in ActorRuntime orders one consumer's stores
  /// before the next one's loads, so relaxed accesses suffice.
  alignas(kCacheLine) std::atomic<MpscNode*> tail_;
  MpscNode stub_;
};

/// Vyukov bounded MPMC array queue of actor ids: the run-queue shard. Every
/// slot carries a sequence number; push/pop are one CAS each on the shared
/// cursor plus uncontended loads/stores on the slot. Sized so that the
/// runtime's "each actor is enqueued at most once" invariant makes push
/// failure impossible (capacity >= actor count).
class MpmcRing {
 public:
  MpmcRing() = default;

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;
  MpmcRing(MpmcRing&&) = delete;
  MpmcRing& operator=(MpmcRing&&) = delete;

  /// Sizes the ring; not thread-safe, call before any push/pop. `capacity`
  /// is rounded up to a power of two >= 2.
  void init(std::uint32_t capacity) {
    std::uint32_t cap = 2;
    while (cap < capacity) cap *= 2;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::uint32_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::uint32_t capacity() const noexcept { return mask_ + 1; }

  /// False iff the ring is full.
  bool push(std::uint32_t value) noexcept {
    CNET_CHECK(cells_ != nullptr);
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full (or a lapped slot whose pop is still in flight)
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// False iff the ring is empty.
  bool pop(std::uint32_t* out) noexcept {
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          *out = cell.value;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty (or the matching push has not published yet)
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    std::uint32_t value = 0;
  };

  std::unique_ptr<Cell[]> cells_;
  std::uint32_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace cnet::mp
