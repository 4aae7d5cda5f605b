// Spin-wait helpers for the real-thread runtime.
//
// Busy loops must stay cheap on the happy path (pause instruction) yet make
// progress when threads outnumber cores: after a bounded number of spins we
// yield to the scheduler so that the thread we are waiting on (an MCS lock
// holder) can actually run. Without the yield, FIFO
// handoffs on an oversubscribed machine cost a full scheduler quantum each.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace cnet {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // No pause primitive: the SpinWaiter's yield fallback does the real work.
#endif
}

/// Call wait() each time a spin-loop condition check fails.
class SpinWaiter {
 public:
  void wait() noexcept {
    if (++spins_ > kSpinLimit) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }

  void reset() noexcept { spins_ = 0; }

 private:
  static constexpr int kSpinLimit = 128;
  int spins_ = 0;
};

/// Burns `ns` of wall time holding the core: the paper's W, injected stalls
/// and pauses, and Cor 3.12 pads are busy time, not blocked time, and a
/// busy wait keeps sub-slice waits accurate.
inline void busy_wait_ns(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) cpu_relax();
}

}  // namespace cnet
