// Message-passing execution of a balancing network: every balancer and every
// output counter is an actor; a counting operation is a token message that
// hops from actor to actor and finally delivers its value back to the
// waiting client.
//
// This realizes the message-passing half of the paper's §2 model on real
// threads: balancer transitions are serialized per actor (instantaneous
// w.r.t. each other), and link traversal times are whatever the scheduler
// makes them — which is exactly the c1/c2 variability the paper studies.
// The paper's per-node delay W is injectable per token (count_delayed):
// the hosting worker busy-waits W ns after each balancer transition before
// forwarding, the message-passing analogue of rt's next_hooked() hook.
//
// Fault injection (Options::fault, see fault/injector.h): token stalls are
// extra busy time after a balancer transition, delivery delays are extra
// busy time before the forward — per-sender FIFO is a mailbox invariant, so
// a delay reorders a message only against *other* senders' traffic, which
// is the reordering the asynchronous model permits — and worker pauses ride
// the ActorRuntime park points. All of it widens the c1/c2 spread the paper
// studies without breaking any scheduling invariant.
//
// Deadlines: count_until() bounds the client's wait. On timeout the client
// abandons its ResponseCell (the cancel CAS in mp/response_cell.h decides
// value-vs-cancel races); the token, however, is already in the network and
// WILL increment an output counter — dropping its value would leave a hole
// in the counted range. The late completer therefore parks the orphaned
// value in the service's ticket buffer, and later operations recycle parked
// values before issuing new tokens. Recycling preserves the counting
// property (every value 0..n-1 handed out exactly once); a recycled value
// may be arbitrarily stale, so operations that return one carry no
// linearizability claim — the run harness measures exactly that.
//
// Quiescence: drain() waits (bounded) for in-flight tokens to reach their
// counter; the destructor drains unconditionally because actor-local state
// and the actor-id tables are destroyed before the runtime joins its
// workers, so a straggler token surviving into teardown would be a
// use-after-free, not a leak.
//
// The hot path rides the lock-free ActorRuntime (pooled MPSC mailboxes,
// sharded run queues) and pooled, thread-cached futex response cells —
// count() allocates nothing.
//
// Observability: point Options::metrics at an obs::MpMetrics to record the
// mailbox-depth distribution and client count() latency, and to read the
// per-actor message breakdown from the actors' own counts
// (docs/OBSERVABILITY.md documents every metric).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "mp/actor_runtime.h"
#include "mp/message_pool.h"
#include "topo/network.h"

namespace cnet::obs {
struct MpMetrics;  // obs/backend_metrics.h
}
namespace cnet::fault {
class Injector;  // fault/injector.h
}
namespace cnet::sched {
class Recorder;  // sched/trace.h
}

namespace cnet::mp {

class ResponseCell;  // mp/response_cell.h

/// Message-passing execution of one topo::Network: balancer node i is actor
/// i, output counter p is actor node_count + p (the actor-index convention
/// obs::MpMetrics::actor_messages follows).
class NetworkService {
 public:
  struct Options {
    /// Worker threads draining the actor run queues.
    std::uint32_t workers = 2;

    /// Observability sink (borrowed; may be null — the default — for zero
    /// instrumentation cost; ignored in CNET_OBS=0 builds).
    obs::MpMetrics* metrics = nullptr;

    /// Fault injector (borrowed; must outlive the service; may be null).
    /// Realizes the plan's stalls, delivery delays, and worker pauses —
    /// see the file comment. Client deaths are an issuer-side decision and
    /// live in the run harness.
    fault::Injector* fault = nullptr;
  };

  /// Outcome of a deadline-bounded counting operation.
  struct TimedCount {
    bool ok = false;          ///< value obtained before the deadline
    std::uint64_t value = 0;  ///< valid iff ok
  };

  /// Outcome of a quiescence drain.
  struct DrainReport {
    bool quiescent = false;        ///< in-flight tokens reached zero in time
    std::uint64_t strays = 0;      ///< tokens still in flight at the deadline
    std::uint64_t waited_ns = 0;   ///< wall time spent draining
  };

  /// Robustness counters (relaxed; exact in quiescence).
  struct RobustnessStats {
    std::uint64_t in_flight = 0;          ///< tokens currently in the network
    std::uint64_t deadline_timeouts = 0;  ///< count_until calls that gave up
    std::uint64_t values_parked = 0;      ///< orphaned values ever parked
    std::uint64_t values_reclaimed = 0;   ///< parked values recycled to clients
    std::uint64_t parked_now = 0;         ///< tickets currently in the buffer
  };

  /// Takes a copy of the topology and starts the workers.
  explicit NetworkService(topo::Network net) : NetworkService(std::move(net), Options()) {}
  NetworkService(topo::Network net, Options options);

  /// Drains in-flight tokens (see the file comment), then joins the workers.
  ~NetworkService();

  /// Performs one counting operation through network input `input`;
  /// blocks until the token's value message arrives. Thread-safe.
  std::uint64_t count(std::uint32_t input) { return count_delayed(input, 0); }

  /// As count(), with the paper's W: the token's hosting worker busy-waits
  /// `wait_ns` after every balancer transition before forwarding. 0 is the
  /// plain fast path.
  std::uint64_t count_delayed(std::uint32_t input, std::uint64_t wait_ns);

  /// Deadline-bounded count_delayed: gives up after `timeout_ns` (measured
  /// from the call). On timeout the operation returns {ok = false} and its
  /// token's eventual value is parked for recycling — see the file comment
  /// for the exact cancellation/recycling semantics.
  TimedCount count_until(std::uint32_t input, std::uint64_t wait_ns, std::uint64_t timeout_ns);

  /// Handle to one asynchronously issued counting operation (see
  /// count_begin). POD; pass it back to exactly one collect call.
  struct Pending {
    ResponseCell* cell = nullptr;  ///< null: `value` was satisfied from the
                                   ///< parked-ticket buffer, nothing in flight
    std::uint64_t value = 0;       ///< valid iff cell == nullptr
    std::uint32_t input = 0;       ///< entry port (metrics attribution)
    std::uint64_t start_ns = 0;    ///< issue timestamp (metrics; 0 = untimed)
  };

  /// Boundary-batching entry point: issues the token and returns without
  /// waiting, so a caller multiplexing many clients (the svc front-end) can
  /// put k tokens in flight with one burst of mailbox sends and only then
  /// start collecting. The send always goes through the run queues
  /// (send_queued) — an inline send would execute the whole walk on the
  /// issuing thread, serializing the burst and making a later deadline-bound
  /// collect unenforceable. Every Pending must be resolved by exactly one
  /// count_collect / count_collect_until before the service is destroyed.
  Pending count_begin(std::uint32_t input, std::uint64_t wait_ns);

  /// Blocks until the pending operation's value arrives and returns it.
  std::uint64_t count_collect(const Pending& pending);

  /// Deadline-bounded collect: gives up at `deadline` with the same
  /// cancellation/parking semantics as count_until (the slot-CAS race in
  /// mp/response_cell.h decides value-vs-cancel; an abandoned token's value
  /// is parked for recycling).
  TimedCount count_collect_until(const Pending& pending,
                                 std::chrono::steady_clock::time_point deadline);

  /// Waits (up to `deadline_ns`) for every in-flight token to reach its
  /// output counter. Quiescent means every issued value has been delivered
  /// or parked; parked tickets are NOT consumed (take_parked does that).
  DrainReport drain(std::uint64_t deadline_ns);

  /// Removes and returns every parked (orphaned) value. The run harness
  /// calls this after drain so abandoned operations' values can be
  /// accounted in the counting check instead of reading as holes.
  std::vector<std::uint64_t> take_parked();

  RobustnessStats robustness_stats() const;

  /// Attaches a schedule recorder (borrowed; null detaches). Every
  /// subsequent token reports its issue, per-node routing decisions, and
  /// committed value, keyed by its ResponseCell — unique while the token is
  /// in flight, which is all the recorder needs. Call only while quiescent
  /// (no tokens in flight): the workers read the pointer unsynchronized.
  /// Operations satisfied from the parked-ticket buffer perform no
  /// traversal and record nothing; see sched/trace.h for how the recorder
  /// attributes records to actors after the fact.
  void set_recorder(sched::Recorder* recorder) { recorder_ = recorder; }

  /// The topology this service executes (the construction-time copy).
  const topo::Network& network() const { return net_; }

  /// Messages handled by all actors so far (balancer hops + counter
  /// deliveries); see obs::MpMetrics for the per-actor breakdown.
  std::uint64_t messages_processed() const { return runtime_.messages_processed(); }

  /// Mailbox-node pool counters; the steady-state allocation tests pin
  /// `slabs` between snapshots.
  MessagePool::Stats pool_stats() const { return runtime_.pool_stats(); }

 private:
  static ActorRuntime::Options runtime_options(const Options& options);

  bool try_pop_parked(std::uint64_t* value);
  void park_value(std::uint64_t value);
  /// The tokens + count_latency_ns record of a completed op (0 = untimed).
  void record_completion(std::uint32_t input, std::uint64_t start_ns);

  topo::Network net_;
  obs::MpMetrics* metrics_ = nullptr;  ///< null unless CNET_OBS wiring is live
  fault::Injector* fault_ = nullptr;
  sched::Recorder* recorder_ = nullptr;  ///< borrowed; null = capture off

  // Declared before runtime_ so they outlive the workers; the counter-actor
  // handlers touch them on the abandonment path.
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> parked_total_{0};
  std::atomic<std::uint64_t> reclaimed_total_{0};
  std::atomic<std::uint64_t> parked_size_{0};  ///< lock-free "any tickets?" probe
  std::mutex parked_mutex_;
  std::vector<std::uint64_t> parked_;  ///< orphaned values awaiting recycling

  ActorRuntime runtime_;
  std::vector<ActorId> node_actors_;     ///< per balancer node
  std::vector<ActorId> counter_actors_;  ///< per network output

  // Per-actor counts (balancer node i, then output counter node_count + p),
  // written only by the owning actor's handler; atomic because the metrics
  // sink reads them.
  std::vector<std::atomic<std::uint64_t>> counts_;
};

}  // namespace cnet::mp
