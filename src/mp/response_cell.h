// ResponseCell: the rendezvous a blocked count() client waits on until the
// output-counter actor delivers its value — with a thread-local cell cache
// so no operation constructs (or heap-allocates) synchronization state.
//
// Completion protocol: one std::atomic<uint64_t> slot. The client spins
// briefly then atomic-waits; the counter actor stores the value and
// notify_one()s — only the sleeping case costs a syscall. The cell is that
// slot alone and is deliberately not cache-line aligned: libstdc++ parks a
// waiter on a 64-bit atomic in a shared proxy bucket picked by
// (address >> 2) % 16, so 64-byte-aligned cells would all land in bucket 0
// and every wait and notify in the process would share one waiter count and
// one wake-all futex. Plain heap cells spread over several buckets.
//
// Deadlines and cancellation: count_until() adds a third party to the
// rendezvous — a waiter that gives up. Ownership of the value is decided by
// a single CAS on the slot: the timed-out waiter CASes kPending ->
// kCancelled; the completer CASes kPending -> value. Exactly one wins.
//   * waiter wins:  the waiter walks away WITHOUT releasing the cell to its
//     cache (the completer may still touch it). When the late completer
//     loses its CAS it owns the orphaned value (the service parks it so the
//     counting property survives) and it — the last party referencing the
//     cell — donates the cell's use right to the arena, where any thread
//     can re-adopt it. An abandoned cell is therefore never freed, never
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
// and its notify. Cells therefore live for the whole process: they are
// cached per client thread (acquire/release below), and at thread exit the
// cache donates every cell to an immortal arena that future threads adopt
// from. A late notify always targets a mapped, live atomic; at worst it
// spuriously wakes the cell's next operation, whose wait loop re-checks the
// pending sentinel.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

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
  void reset() { slot_.store(kPending, std::memory_order_relaxed); }

  /// Delivers `value`. Returns false when the waiter already cancelled: the
  /// caller then owns the value (park it) and the cell (donate it to the
  /// arena via ResponseCellCache::donate_abandoned — and must not touch the
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
  std::atomic<std::uint64_t> slot_{kPending};
};

namespace detail {
/// Process-wide count of cells ever constructed; the pooling test pins it
/// across a burst of operations.
inline std::atomic<std::uint64_t> g_response_cells_created{0};

/// Process-lifetime home for every cell: exiting threads donate their
/// cells here and new threads adopt them back, so a cell is never
/// destroyed while any completer could still touch it (the file header's
/// lifetime argument rests on this). The arena itself is constructed with
/// `new` and never deleted — deliberately outside static destruction
/// order, since a completer inside a still-live runtime must not race the
/// arena's teardown. It stays reachable through the function-local static,
/// so leak checkers do not flag it.
struct ResponseCellArena {
  std::mutex mutex;
  std::vector<std::unique_ptr<ResponseCell>> owned;
  std::vector<ResponseCell*> free_cells;

  // Lifecycle counters (under mutex for writes; read via snapshot()).
  std::uint64_t thread_donations = 0;  ///< cells donated by exiting threads
  std::uint64_t adoptions = 0;         ///< cells re-adopted by new threads
  std::uint64_t orphan_donations = 0;  ///< abandoned (timed-out) cells donated
                                       ///< by their late completer

  static ResponseCellArena& instance() {
    static auto* arena = new ResponseCellArena();
    return *arena;
  }
};
}  // namespace detail

/// Thread-local cell cache over the process-lifetime arena. A cell is owned
/// by exactly one in-flight operation of the acquiring thread, so the fast
/// path needs no synchronization; the arena mutex is taken only to adopt a
/// cell on a cache miss, to donate the cache back at thread exit, and to
/// donate an abandoned cell after its waiter timed out.
class ResponseCellCache {
 public:
  static ResponseCell* acquire() {
    Tls& tls = tls_instance();
    if (tls.free_cells.empty() && !adopt_from_arena(tls)) {
      tls.owned.push_back(std::make_unique<ResponseCell>());
      detail::g_response_cells_created.fetch_add(1, std::memory_order_relaxed);
      tls.free_cells.push_back(tls.owned.back().get());
    }
    ResponseCell* cell = tls.free_cells.back();
    tls.free_cells.pop_back();
    cell->reset();
    return cell;
  }

  static void release(ResponseCell* cell) { tls_instance().free_cells.push_back(cell); }

  /// Hands an abandoned (cancelled) cell's use right to the arena. Called
  /// by the late completer — the last party referencing the cell — so the
  /// cell re-enters circulation instead of leaking from every free list.
  /// Ownership (the unique_ptr) is wherever it always was: the acquiring
  /// thread's cache, or already the arena if that thread exited.
  static void donate_abandoned(ResponseCell* cell) {
    auto& arena = detail::ResponseCellArena::instance();
    const std::scoped_lock lock(arena.mutex);
    arena.free_cells.push_back(cell);
    ++arena.orphan_donations;
  }

  /// Total cells constructed process-wide (monotone; for tests). Arena
  /// adoption recycles, so this pins across thread churn too.
  static std::uint64_t cells_created() {
    return detail::g_response_cells_created.load(std::memory_order_relaxed);
  }

  /// Point-in-time arena occupancy and lifecycle counters, for the obs
  /// surface (mp.cells.* gauges) and the churn/abandonment tests. Process-
  /// wide: every service shares one arena.
  struct ArenaStats {
    std::uint64_t owned = 0;             ///< cells whose unique_ptr lives in the arena
    std::uint64_t free_cells = 0;        ///< use rights currently parked in the arena
    std::uint64_t thread_donations = 0;
    std::uint64_t adoptions = 0;
    std::uint64_t orphan_donations = 0;
  };

  static ArenaStats arena_stats() {
    auto& arena = detail::ResponseCellArena::instance();
    const std::scoped_lock lock(arena.mutex);
    ArenaStats s;
    s.owned = arena.owned.size();
    s.free_cells = arena.free_cells.size();
    s.thread_donations = arena.thread_donations;
    s.adoptions = arena.adoptions;
    s.orphan_donations = arena.orphan_donations;
    return s;
  }

 private:
  struct Tls {
    std::vector<std::unique_ptr<ResponseCell>> owned;
    std::vector<ResponseCell*> free_cells;

    /// Thread exit: every cell this thread acquired and did not abandon has
    /// been released (acquire/release bracket each completed operation on
    /// the same thread), so the whole free list is donatable; abandoned
    /// cells' use rights come back through donate_abandoned instead.
    /// Ownership of every cell this thread constructed moves to the arena
    /// so nothing is destroyed while a completer could still touch it.
    ~Tls() {
      auto& arena = detail::ResponseCellArena::instance();
      const std::scoped_lock lock(arena.mutex);
      for (auto& cell : owned) arena.owned.push_back(std::move(cell));
      arena.free_cells.insert(arena.free_cells.end(), free_cells.begin(), free_cells.end());
      arena.thread_donations += free_cells.size();
    }
  };

  static bool adopt_from_arena(Tls& tls) {
    auto& arena = detail::ResponseCellArena::instance();
    const std::scoped_lock lock(arena.mutex);
    if (arena.free_cells.empty()) return false;
    // Ownership stays in the arena (the cell must outlive this thread too);
    // only the use right moves into the cache.
    tls.free_cells.push_back(arena.free_cells.back());
    arena.free_cells.pop_back();
    ++arena.adoptions;
    return true;
  }

  static Tls& tls_instance() {
    thread_local Tls tls;
    return tls;
  }
};

}  // namespace cnet::mp
