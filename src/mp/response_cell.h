// ResponseCell: the rendezvous a blocked count() client waits on until the
// output-counter actor delivers its value — and, while its wave is in
// flight, the wave's mailbox entry. Cells come from mp's one pool: slabs
// the process never frees, handed out through per-thread caches, so no
// operation constructs (or heap-allocates) synchronization state and no
// message allocates a node.
//
// Completion protocol: one std::atomic<uint64_t> slot. The client spins
// briefly then atomic-waits; the counter actor stores the value and
// notify_one()s — only the sleeping case costs a syscall.
//
// Atomic-wait buckets: libstdc++ (GCC 12) parks a waiter on a 64-bit
// atomic in one of 16 process-wide buckets, picked as (address >> 2) % 16.
// The 64-bit wait sleeps on the bucket's shared proxy word, and a notify on
// that word wakes every waiter in the bucket. So cells must spread their
// slots over the buckets. Cells that malloc served one by one did not: 16
// bytes each, in 32-byte chunks, 4,096 of them fell 2,048 + 2,048 into
// buckets 0 and 8. A slab places its cells at a 40-byte stride, eight
// distinct offsets mod 64, so the slots of any eight neighbouring cells
// cover eight buckets (a 32-byte cell would cover two).
// tests/mp_network_service_test.cpp pins that spread.
//
// Waves: a token message (mp/message.h) carries a list of cells, one per
// token that travels in it, linked through `next`. The link is a plain
// pointer, not an atomic: the issuing client writes it, each balancer
// actor relinks the cells it deals to its output ports, and the next
// holder reads it, with every hand-off ordered by the mailbox's release
// push and acquire pop. The first cell of a list is the list's message:
// its embedded MpscNode is what the sender pushes into the receiving
// actor's mailbox (as_message()), so a hop allocates nothing. A counter
// actor reads `next` before complete(), since the moment a cell completes
// its waiter may release and reissue it in another wave.
//
// Deadlines and cancellation: count_collect_until() adds a third party to
// the rendezvous — a waiter that gives up. Ownership of the value is
// decided by a single CAS on the slot: the timed-out waiter CASes kPending
// -> kCancelled; the completer CASes kPending -> value. Exactly one wins.
//   * waiter wins:  the waiter walks away WITHOUT releasing the cell to its
//     cache (the completer may still touch it). When the late completer
//     loses its CAS it owns the orphaned value (the service parks it so the
//     counting property survives) and it — the last party referencing the
//     cell — donates the cell to the pool, where any thread can take it up
//     again. An abandoned cell is therefore never freed, never
//     double-listed, and never written after donation.
//   * completer wins: the (possibly late) waiter reads the value through
//     its failed cancel CAS and completes normally.
//
// Cell lifetime is the linchpin of the protocol: the waiter may observe
// the value through await()'s spin loop and return *before* the
// completer reaches its notify_one, so the notify can land on a cell whose
// operation is already over — and, if cells died with their thread, on a
// destroyed cell once a client thread (bench/test clients exit right after
// their last count()) tears down its cache between the completer's store
// and its notify. Cells therefore live for the whole process: the pool
// owns every slab from birth, a thread cache holds pointers only, and at
// thread exit the cache donates its cells back to the pool for later
// threads. A late notify always targets a mapped, live atomic; at worst it
// spuriously wakes the cell's next operation, whose wait loop re-checks the
// pending sentinel.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mp/mpsc_queue.h"
#include "util/spin.h"

namespace cnet::mp {

class ResponseCell {
 public:
  /// Counter values are token ranks (port + a * width); the top two values
  /// of the 64-bit space cannot occur for any realizable history, so they
  /// mark "no value yet" and "waiter gave up".
  static constexpr std::uint64_t kPending = ~std::uint64_t{0};
  static constexpr std::uint64_t kCancelled = ~std::uint64_t{0} - 1;

  /// Outcome of a deadline-bounded wait.
  struct TimedWait {
    bool ok = false;            ///< value arrived (possibly racing the deadline)
    std::uint64_t value = 0;    ///< valid iff ok
  };

  /// Re-arm a recycled cell. Call before handing it to a token.
  void reset() {
    slot_.store(kPending, std::memory_order_relaxed);
    next = nullptr;
  }

  /// This cell as the message of the list it heads: W (0 for none) and the
  /// cell itself. The sender pushes the returned node into one mailbox and
  /// must not touch the list again; the receiving actor owns it from the
  /// pop on.
  MpscNode* as_message(std::uint64_t wait_ns) {
    node_.msg = Message{wait_ns, this};
    return &node_;
  }

  /// The next cell of the wave this cell travels in; null ends the list
  /// (see the file comment for who writes it and when).
  ResponseCell* next = nullptr;

  /// Delivers `value`. Returns false when the waiter already cancelled: the
  /// caller then owns the value (park it) and the cell (donate it to the
  /// pool via ResponseCellCache::donate_abandoned — and must not touch the
  /// cell afterwards).
  bool complete(std::uint64_t value) {
    std::uint64_t expected = kPending;
    if (!slot_.compare_exchange_strong(expected, value, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return false;  // expected == kCancelled: the waiter walked away
    }
    slot_.notify_one();
    return true;
  }

  std::uint64_t await() {
    std::uint64_t value = slot_.load(std::memory_order_acquire);
    for (int i = 0; value == kPending && i < 64; ++i) {
      cpu_relax();  // a token in flight often lands within a few hops' time
      value = slot_.load(std::memory_order_acquire);
    }
    while (value == kPending) {
      slot_.wait(kPending, std::memory_order_acquire);
      value = slot_.load(std::memory_order_acquire);
    }
    return value;
  }

  /// Deadline-bounded await(). On timeout attempts the cancel CAS; a
  /// failed cancel means the value arrived concurrently and is returned as
  /// a normal completion. After a successful cancel the caller must abandon
  /// the cell (no release).
  ///
  /// std::atomic::wait has no timed form, so past the spin window this
  /// polls with a short exponential sleep — fine for a rare-path deadline
  /// wait (the common case completes inside the spin window).
  TimedWait await_until(std::chrono::steady_clock::time_point deadline) {
    std::uint64_t value = slot_.load(std::memory_order_acquire);
    for (int i = 0; value == kPending && i < 64; ++i) {
      cpu_relax();
      value = slot_.load(std::memory_order_acquire);
    }
    std::chrono::microseconds nap{1};
    while (value == kPending) {
      if (std::chrono::steady_clock::now() >= deadline) {
        std::uint64_t expected = kPending;
        if (slot_.compare_exchange_strong(expected, kCancelled, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          return {};  // cancelled: the completer owns value and cell now
        }
        return {true, expected};  // lost the race to the value — take it
      }
      std::this_thread::sleep_for(nap);
      if (nap < std::chrono::microseconds{128}) nap *= 2;
      value = slot_.load(std::memory_order_acquire);
    }
    return {true, value};
  }

 private:
  MpscNode node_;  ///< mailbox entry while this cell heads a list in flight
  std::atomic<std::uint64_t> slot_{kPending};
};

// The 40-byte stride is what spreads the slots over the wait buckets (see
// the file comment).
static_assert(sizeof(ResponseCell) == 40);

namespace detail {
/// The one pool: process-lifetime home for every cell. It allocates cells
/// in slabs and never frees one, so a cell outlives every completer that
/// could still touch it (the file header's lifetime argument rests on
/// this). The pool itself is constructed with `new` and never deleted —
/// deliberately outside static destruction order, since a completer inside
/// a still-live runtime must not race the pool's teardown. It stays
/// reachable through the function-local static, so leak checkers do not
/// flag it.
struct ResponseCellPool {
  std::mutex mutex;
  std::vector<std::unique_ptr<ResponseCell[]>> slabs;
  std::vector<ResponseCell*> free_cells;

  // Lifecycle counters (under mutex for writes; read via pool_stats()).
  std::uint64_t thread_donations = 0;  ///< cells donated by exiting threads
  std::uint64_t adoptions = 0;         ///< cells thread caches took from the pool
  std::uint64_t orphan_donations = 0;  ///< abandoned (timed-out) cells donated
                                       ///< by their late completer

  static ResponseCellPool& instance() {
    static auto* pool = new ResponseCellPool();
    return *pool;
  }
};
}  // namespace detail

/// Thread-local cell cache over the process-wide pool. A cell is owned by
/// exactly one in-flight operation of the acquiring thread, which releases
/// it at collect, so the fast path needs no synchronization; the pool
/// mutex is taken only to refill an empty cache, to donate the cache back
/// at thread exit, and to donate an abandoned cell after its waiter timed
/// out.
class ResponseCellCache {
 public:
  /// Cells per slab, the pool's only allocation.
  static constexpr std::size_t kSlabCells = 64;
  /// Cells an empty thread cache takes from the pool at once.
  static constexpr std::size_t kRefillCells = 16;

  static ResponseCell* acquire() {
    Tls& tls = tls_instance();
    if (tls.free_cells.empty()) refill(tls);
    ResponseCell* cell = tls.free_cells.back();
    tls.free_cells.pop_back();
    cell->reset();
    return cell;
  }

  static void release(ResponseCell* cell) { tls_instance().free_cells.push_back(cell); }

  /// Hands an abandoned (cancelled) cell back to the pool. Called by the
  /// late completer — the last party referencing the cell — so the cell
  /// re-enters circulation instead of leaking from every free list.
  static void donate_abandoned(ResponseCell* cell) {
    auto& pool = detail::ResponseCellPool::instance();
    const std::scoped_lock lock(pool.mutex);
    pool.free_cells.push_back(cell);
    ++pool.orphan_donations;
  }

  /// Point-in-time pool occupancy and lifecycle counters, for the obs
  /// surface (mp.cells.* gauges), perfbench's mp.pool_slabs and the
  /// steady-state tests. Process-wide: every service shares one pool.
  struct PoolStats {
    std::uint64_t slabs = 0;             ///< slabs allocated (kSlabCells cells each)
    std::uint64_t free_cells = 0;        ///< cells parked in the pool, in no cache
    std::uint64_t thread_donations = 0;
    std::uint64_t adoptions = 0;
    std::uint64_t orphan_donations = 0;
  };

  static PoolStats pool_stats() {
    auto& pool = detail::ResponseCellPool::instance();
    const std::scoped_lock lock(pool.mutex);
    PoolStats s;
    s.slabs = pool.slabs.size();
    s.free_cells = pool.free_cells.size();
    s.thread_donations = pool.thread_donations;
    s.adoptions = pool.adoptions;
    s.orphan_donations = pool.orphan_donations;
    return s;
  }

  /// Total cells constructed process-wide (monotone; for tests).
  static std::uint64_t cells_created() { return pool_stats().slabs * kSlabCells; }

 private:
  struct Tls {
    std::vector<ResponseCell*> free_cells;

    /// Thread exit: every cell this thread acquired and did not abandon has
    /// been released (acquire/release bracket each completed operation on
    /// the same thread), so the whole cache is donatable; abandoned cells
    /// come back through donate_abandoned instead.
    ~Tls() {
      auto& pool = detail::ResponseCellPool::instance();
      const std::scoped_lock lock(pool.mutex);
      pool.free_cells.insert(pool.free_cells.end(), free_cells.begin(), free_cells.end());
      pool.thread_donations += free_cells.size();
    }
  };

  /// Takes up to kRefillCells cells from the pool, growing it by one slab
  /// when it has none free. A fresh slab hands its cells out in address
  /// order, so one thread's cells sit together.
  static void refill(Tls& tls) {
    auto& pool = detail::ResponseCellPool::instance();
    const std::scoped_lock lock(pool.mutex);
    if (pool.free_cells.empty()) {
      auto slab = std::make_unique<ResponseCell[]>(kSlabCells);
      for (std::size_t i = kSlabCells; i-- > 0;) pool.free_cells.push_back(&slab[i]);
      pool.slabs.push_back(std::move(slab));
    }
    const std::size_t n = std::min(kRefillCells, pool.free_cells.size());
    const auto first = pool.free_cells.end() - static_cast<std::ptrdiff_t>(n);
    tls.free_cells.insert(tls.free_cells.end(), first, pool.free_cells.end());
    pool.free_cells.erase(first, pool.free_cells.end());
    pool.adoptions += n;
  }

  static Tls& tls_instance() {
    thread_local Tls tls;
    return tls;
  }
};

}  // namespace cnet::mp
