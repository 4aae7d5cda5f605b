// Message-passing execution of a balancing network: every balancer and every
// output counter is an actor; a counting operation is a token that hops
// from actor to actor and finally delivers its value back to the waiting
// client.
//
// This realizes the message-passing half of the paper's §2 model on real
// threads: balancer transitions are serialized per actor (instantaneous
// w.r.t. each other), and link traversal times are whatever the scheduler
// makes them — which is exactly the c1/c2 variability the paper studies.
// The paper's per-node delay W is injectable per token (count_delayed):
// the hosting worker busy-waits W ns after each balancer transition before
// forwarding, the message-passing analogue of rt's next_hooked() hook.
//
// Waves: a token message carries c >= 1 tokens, as a list of their
// response cells (mp/message.h), and the list's first cell is the mailbox
// entry that carries it (mp/response_cell.h). A balancer's t-th token
// leaves on port t mod fan-out and transitions are instantaneous, so a
// balancer actor reads its count t once, deals cell j to port (t + j) mod
// fan-out in list order, stores t + c and sends the head cell of each port
// list that got cells. A counter actor gives its j-th cell the value
// port + (a + j) * width. So a wave entering a quiescent counting network
// collects the values c sequential count() calls would return, and on a
// tree cell j gets exactly the j-th of them. A single operation is a wave
// of one: count, count_delayed, count_begin, count_begin_batch and
// count_batch share one issue path, and the actors have one code path for
// any c. W, stalls, delivery delays and recorder hops apply per message,
// and only waves of one carry them: a batch issued while a fault injector
// or recorder is attached travels as one wave of one per token, as rt's
// batched claim falls back to single tokens.
//
// Fault injection (Options::fault, see fault/injector.h): token stalls are
// extra busy time after a balancer transition, delivery delays are extra
// busy time before the forward — per-sender FIFO is a mailbox invariant, so
// a delay reorders a message only against *other* senders' traffic, which
// is the reordering the asynchronous model permits — and worker pauses ride
// the ActorRuntime park points. All of it widens the c1/c2 spread the paper
// studies without breaking any scheduling invariant.
//
// Deadlines: count_collect_until() bounds the client's wait. On timeout
// the client abandons its ResponseCell (the cancel CAS in
// mp/response_cell.h decides value-vs-cancel races); the token, however, is
// already in the network and WILL increment an output counter — dropping
// its value would leave a hole in the counted range. The late completer
// therefore parks the orphaned value in the service's ticket buffer, and
// later operations recycle parked values before issuing new tokens.
// Recycling preserves the counting property (every value 0..n-1 handed out
// exactly once); a recycled value may be arbitrarily stale, so operations
// that return one carry no linearizability claim — the run harness
// measures exactly that.
//
// Quiescence: drain() waits (bounded) for in-flight tokens to reach their
// counter; the destructor drains unconditionally because actor-local state
// and the actor-id tables are destroyed before the runtime joins its
// workers, so a straggler token surviving into teardown would be a
// use-after-free, not a leak.
//
// The hot path rides the lock-free ActorRuntime (intrusive MPSC mailboxes,
// sharded run queues) and mp's one pool of thread-cached futex response
// cells: a wave's head cell is its own mailbox node, so count() allocates
// nothing and a hop takes no node from anywhere.
//
// Observability: point Options::metrics at an obs::MpMetrics to record the
// mailbox-depth distribution and client count() latency, and to read the
// per-actor visit breakdown (tokens, not messages) from the actors' own
// counts (docs/OBSERVABILITY.md documents every metric).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "mp/actor_runtime.h"
#include "mp/response_cell.h"
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

/// Message-passing execution of one topo::Network: balancer node i is actor
/// i, output counter p is actor node_count + p (the actor-index convention
/// obs::MpMetrics::actor_visits follows).
class NetworkService {
 public:
  struct Options {
    /// Worker threads draining the actor run queues.
    std::uint32_t workers = 2;

    /// Observability sink (borrowed; may be null — the default — to record
    /// nothing; the hot path then keeps only its null tests).
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
    std::uint64_t deadline_timeouts = 0;  ///< deadline collects that gave up
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

  /// Handle to one asynchronously issued counting operation (see
  /// count_begin). POD; pass it back to exactly one collect call.
  struct Pending {
    ResponseCell* cell = nullptr;  ///< null: `value` was satisfied from the
                                   ///< parked-ticket buffer, nothing in flight
    std::uint64_t value = 0;       ///< valid iff cell == nullptr
    std::uint32_t input = 0;       ///< entry port (metrics attribution)
    std::uint64_t start_ns = 0;    ///< issue timestamp (metrics; 0 = untimed)
  };

  /// Asynchronous entry point: issues the token and returns without
  /// waiting. The send always goes through the run queues (send_queued) —
  /// an inline send would execute the whole walk on the issuing thread and
  /// make a later deadline-bound collect unenforceable. Every Pending must
  /// be resolved by exactly one count_collect / count_collect_until before
  /// the service is destroyed.
  Pending count_begin(std::uint32_t input, std::uint64_t wait_ns);

  /// Boundary-batching entry point: issues out.size() tokens through
  /// `input` as one wave (one message, queued like count_begin's) and
  /// returns without waiting, so a caller multiplexing many clients (the
  /// svc front-end) puts a whole chunk in flight with one mailbox send.
  /// out[i] is the i-th token's handle, resolved exactly as count_begin's.
  /// Slots the parked-ticket buffer satisfies carry their value and no
  /// cell. With a fault injector or recorder attached, every token travels
  /// as its own message (see the file comment).
  void count_begin_batch(std::uint32_t input, std::span<Pending> out);

  /// Claims out.size() values through `input` as one wave and blocks until
  /// all arrive. The send may run the wave inline on the caller's thread,
  /// as count() does. The values are written in ascending order, so a
  /// single-threaded batch equals out.size() count() calls on every
  /// counting network.
  void count_batch(std::uint32_t input, std::span<std::uint64_t> out);

  /// Blocks until the pending operation's value arrives and returns it.
  std::uint64_t count_collect(const Pending& pending);

  /// Deadline-bounded collect: gives up at `deadline` and returns
  /// {ok = false}. The slot-CAS race in mp/response_cell.h decides
  /// value-vs-cancel, and an abandoned token's value is parked for
  /// recycling (see the file comment).
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
  /// deliveries). A message carries a whole wave or sub-wave, so on a tree
  /// a wave of any size is one message per actor it reaches; where
  /// sub-waves meet again (bitonic, periodic) each arrives as its own
  /// message. obs::MpMetrics counts tokens (visits) per actor instead.
  std::uint64_t messages_processed() const { return runtime_.messages_processed(); }

  /// Counters of mp's one pool, the response-cell slabs. Process-wide:
  /// every service shares the pool. The steady-state tests pin `slabs`
  /// between snapshots.
  ResponseCellCache::PoolStats pool_stats() const { return ResponseCellCache::pool_stats(); }

 private:
  static ActorRuntime::Options runtime_options(const Options& options);

  /// The one issue path behind every entry point: fills each slot of
  /// `wave` from the parked-ticket buffer or with a fresh cell, then sends
  /// the cells to `input`'s entry actor as one message (one per cell under
  /// faults or capture), queued or allowing the inline fast path.
  void issue(std::uint32_t input, std::uint64_t wait_ns, std::span<Pending> wave, bool queued);

  bool try_pop_parked(std::uint64_t* value);
  void park_value(std::uint64_t value);
  /// The tokens + count_latency_ns record of a completed op (0 = untimed).
  void record_completion(std::uint32_t input, std::uint64_t start_ns);

  topo::Network net_;
  obs::MpMetrics* metrics_ = nullptr;  ///< Options::metrics; null = off
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

  // Per-actor token counts (balancer node i, then output counter
  // node_count + p), advanced by c per wave and written only by the owning
  // actor's handler; atomic because the metrics sink reads them.
  std::vector<std::atomic<std::uint64_t>> counts_;
};

}  // namespace cnet::mp
