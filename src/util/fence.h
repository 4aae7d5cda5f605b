// A standalone std::atomic_thread_fence for the protocols that need one.
// ThreadSanitizer does not model fences, and GCC 11+ rejects every
// std::atomic_thread_fence under -fsanitize=thread (-Wtsan, an error with
// CNET_WERROR). Each caller states why TSan loses nothing by not seeing its
// fence. Other builds compile this to exactly std::atomic_thread_fence.
#pragma once

#include <atomic>

namespace cnet {

// Clang has no -Wtsan group (and reports __GNUC__ 4).
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
inline void tsan_blind_fence(std::memory_order order) { std::atomic_thread_fence(order); }
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11
#pragma GCC diagnostic pop
#endif

}  // namespace cnet
