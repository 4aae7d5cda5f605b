// Mellor-Crummey & Scott queue lock on std::atomic — the real-hardware
// counterpart of psim::McsLock. On real threads it guards the §1 baseline,
// a central counter under one lock (bench/throughput_rt.cpp,
// BM_McsLockedCounter); the §5 balancers that run as MCS critical sections
// live in psim, where Figures 5-7 are reproduced.
//
// Queue nodes live on the acquirer's stack: they are only touched between
// acquire() and the matching release(), both called in the same scope.
#pragma once

#include <atomic>

#include "util/cacheline.h"

namespace cnet::rt {

class McsLock {
 public:
  struct alignas(kCacheLine) Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<bool> locked{false};
  };

  McsLock() = default;
  McsLock(const McsLock&) = delete;
  McsLock& operator=(const McsLock&) = delete;

  /// Enqueues `node` and spins (locally) until the lock is held.
  void acquire(Node& node) noexcept;

  /// Releases the lock; `node` must be the one passed to acquire().
  void release(Node& node) noexcept;

  /// Convenience RAII guard with a stack-resident queue node.
  class Guard {
   public:
    explicit Guard(McsLock& lock) : lock_(&lock) { lock_->acquire(node_); }
    ~Guard() { lock_->release(node_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    McsLock* lock_;
    Node node_;
  };

 private:
  alignas(kCacheLine) std::atomic<Node*> tail_{nullptr};
};

}  // namespace cnet::rt
