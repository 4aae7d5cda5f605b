// fault::Injector: the seeded decision engine behind a FaultPlan. The
// backends ask it "should this hop stall?", "should this park point
// pause?", "should this delivery be delayed?", "does this client die on
// this op?" and it answers from per-stream deterministic RNGs while
// counting every injection for the run report.
//
// Determinism: real threads interleave nondeterministically, so "seeded"
// here means each *stream* — one per thread id / worker id — draws a
// seed-determined decision sequence. Two runs with the same plan, the same
// workload partitioning, and the same per-thread op order inject the same
// faults at the same logical points; what wall-clock moment those points
// land on is (deliberately) up to the scheduler, which is exactly the
// timing freedom the paper's model grants the adversary.
//
// Thread safety: decision streams are sharded per id with one RNG per
// cache-line-padded slot; two ids that collide on a shard share a stream
// (same policy as obs::ShardedCounter). All counters are relaxed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "fault/plan.h"
#include "util/cacheline.h"
#include "util/rng.h"

namespace cnet::fault {

class Injector {
 public:
  /// Injection totals (relaxed; exact in quiescence).
  struct Stats {
    std::uint64_t stalls = 0;   ///< token-hop stalls injected
    std::uint64_t pauses = 0;   ///< worker park points that paused
    std::uint64_t delays = 0;   ///< message deliveries delayed
    std::uint64_t deaths = 0;   ///< client operations abandoned mid-flight
    std::uint64_t stall_ns = 0; ///< total injected stall time
  };

  explicit Injector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Stall decision for the token stream `id` (thread id on rt, node id on
  /// mp, token id on sim) crossing a hop out of 1-based layer `layer`.
  /// Returns the busy-wait length, 0 for "no stall".
  std::uint64_t stall_ns(std::uint32_t id, std::uint32_t layer) {
    if (!plan_.has_stalls()) return 0;
    if (plan_.stall_hop != kAnyHop && layer != plan_.stall_hop) return 0;
    const bool hit = stream(stall_streams_, id).chance(plan_.stall_prob);
    if (!hit) return 0;
    stats_stalls_.fetch_add(1, std::memory_order_relaxed);
    stats_stall_ns_.fetch_add(plan_.stall_ns, std::memory_order_relaxed);
    return plan_.stall_ns;
  }

  /// Park-point decision for worker `worker`; ns to pause, 0 for none.
  std::uint64_t pause_ns(std::uint32_t worker) {
    if (!plan_.has_pauses()) return 0;
    const bool hit = stream(pause_streams_, worker).chance(plan_.pause_prob);
    if (!hit) return 0;
    stats_pauses_.fetch_add(1, std::memory_order_relaxed);
    return plan_.pause_ns;
  }

  /// Delivery-delay decision for a message bound for actor `actor`.
  std::uint64_t delivery_delay_ns(std::uint32_t actor) {
    if (!plan_.has_delays()) return 0;
    const bool hit = stream(delay_streams_, actor).chance(plan_.delay_prob);
    if (!hit) return 0;
    stats_delays_.fetch_add(1, std::memory_order_relaxed);
    return plan_.delay_ns;
  }

  /// True when issuer `id`'s `op_index`-th operation (0-based) should be
  /// abandoned mid-flight. Deterministic in (plan, id, op_index) alone.
  bool should_die(std::uint32_t id, std::uint64_t op_index) {
    if (!plan_.has_deaths()) return false;
    // Offset by the id so concurrent issuers do not all die on the same
    // beat; period and phase are plan-determined, not RNG-drawn, so a
    // test can predict exactly which ops die.
    const bool dies = (op_index + id) % plan_.die_every == plan_.die_every - 1;
    if (!dies) return false;
    stats_deaths_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  Stats stats() const {
    Stats s;
    s.stalls = stats_stalls_.load(std::memory_order_relaxed);
    s.pauses = stats_pauses_.load(std::memory_order_relaxed);
    s.delays = stats_delays_.load(std::memory_order_relaxed);
    s.deaths = stats_deaths_.load(std::memory_order_relaxed);
    s.stall_ns = stats_stall_ns_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// One RNG per cache-line-padded shard; ids are folded with the shard
  /// mask. RNG state is not atomic, so each draw claims the shard with a
  /// one-flag spinlock (bounded by the partner's single draw). Up to
  /// kStreams distinct ids every id owns its stream and its decision
  /// sequence is fully seed-determined; past that, colliding ids share a
  /// stream and the *interleaving* of their draws becomes scheduler-
  /// dependent (the chaos tests keep ids under kStreams).
  static constexpr std::uint32_t kStreams = 64;

  struct alignas(kCacheLine) Stream {
    Rng rng;
    std::atomic_flag busy = ATOMIC_FLAG_INIT;
  };

  /// Claims the shard's RNG for one draw. Collisions only matter when more
  /// than kStreams distinct ids draw concurrently; the spin is bounded by
  /// the partner's single draw.
  class StreamDraw {
   public:
    explicit StreamDraw(Stream& s) : s_(s) {
      while (s_.busy.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~StreamDraw() { s_.busy.clear(std::memory_order_release); }
    Rng& rng() { return s_.rng; }

   private:
    Stream& s_;
  };

  struct Draw {
    Stream& s;
    bool chance(double p) {
      StreamDraw draw(s);
      return draw.rng().chance(p);
    }
  };

  Draw stream(std::unique_ptr<Stream[]>& streams, std::uint32_t id) {
    return Draw{streams[id & (kStreams - 1)]};
  }

  FaultPlan plan_;
  std::unique_ptr<Stream[]> stall_streams_;
  std::unique_ptr<Stream[]> pause_streams_;
  std::unique_ptr<Stream[]> delay_streams_;

  std::atomic<std::uint64_t> stats_stalls_{0};
  std::atomic<std::uint64_t> stats_pauses_{0};
  std::atomic<std::uint64_t> stats_delays_{0};
  std::atomic<std::uint64_t> stats_deaths_{0};
  std::atomic<std::uint64_t> stats_stall_ns_{0};
};

}  // namespace cnet::fault
