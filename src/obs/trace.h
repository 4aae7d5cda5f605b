// Fixed-size per-shard trace ring buffers: the "flight recorder" half of the
// observability layer. Writers append token-hop events into the ring owned
// by their shard (thread id folded by kShardMask); old events are silently
// overwritten, so memory is bounded no matter how long the process runs.
// dump_chrome_json() renders whatever the rings currently hold as a Chrome
// trace-event JSON document (load it in chrome://tracing or ui.perfetto.dev).
//
// Timestamps are now_ns() nanoseconds, recorded by the rt counter's sampled
// tokens; the dump scales them to the microseconds chrome://tracing expects.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "util/cacheline.h"

namespace cnet::obs {

/// What a trace event describes; selects the event's name in the dump.
enum class TracePhase : std::uint8_t {
  kHop,  ///< one balancer traversal; id = node index
  kOp,   ///< a whole counting operation; id = entry input
};

/// One recorded event. 32 bytes; plain data, copied into the ring.
struct TraceEvent {
  std::uint64_t ts = 0;    ///< start timestamp (ns)
  std::uint64_t dur = 0;   ///< duration (ns)
  std::uint32_t track = 0; ///< caller thread id
  std::uint32_t id = 0;    ///< node index or entry input (see phase)
  TracePhase phase = TracePhase::kHop;
};

/// Bounded multi-writer trace sink. Disabled (capacity 0) by default:
/// record() on a disabled ring is a single predictable branch.
class TraceRing {
 public:
  TraceRing() = default;

  /// Allocates kShards rings of `capacity_per_shard` events (rounded up to
  /// a power of two). Not thread-safe; call during setup, at most once.
  void enable(std::uint32_t capacity_per_shard = 4096);

  bool enabled() const noexcept { return rings_ != nullptr; }

  /// Appends, overwriting the oldest event once the shard's ring is full.
  void record(std::uint32_t thread_id, const TraceEvent& event) noexcept {
    if (rings_ == nullptr) return;
    Ring& ring = rings_[thread_id & kShardMask];
    const std::uint64_t pos = ring.next.fetch_add(1, std::memory_order_relaxed);
    ring.events[pos & mask_] = event;
  }

  /// Events currently held (sum over shards, capped by capacity).
  std::uint64_t size() const noexcept;

  /// Chrome trace-event JSON ("traceEvents" array of complete events), with
  /// the nanosecond stamps converted to microseconds.
  std::string dump_chrome_json() const;

 private:
  struct alignas(kCacheLine) Ring {
    std::atomic<std::uint64_t> next{0};
    std::unique_ptr<TraceEvent[]> events;
  };

  std::uint32_t mask_ = 0;
  std::unique_ptr<Ring[]> rings_;
};

}  // namespace cnet::obs
