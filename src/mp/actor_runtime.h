// A small actor runtime: serialized-per-actor message processing on a
// worker-thread pool. This is the substrate for the message-passing
// execution of balancing networks (mp::NetworkService) — the paper's model
// explicitly covers "both message passing and shared memory implementations"
// (§2), and in the message-passing reading every balancer is a process that
// reacts to token messages.
//
// Hot path: Vyukov intrusive MPSC mailboxes whose nodes the senders own
// (mp::NetworkService sends the head cell of each wave; the runtime neither
// allocates nor recycles a node), per-worker MPMC run-queue shards with
// work stealing, and a futex-style std::atomic wait/notify idle protocol. A
// send is one mailbox exchange plus one run-queue CAS; a wake syscall
// happens only when a worker is actually sleeping. A send from a non-worker
// thread that claims an idle actor additionally *donates the sending
// thread*: it runs the actor's turn inline (bounded by a recursion budget)
// instead of paying a run-queue round trip plus a context switch per hop —
// the scheduling invariant is untouched because the inline turn holds the
// same SCHEDULED claim a worker would. Workers drain a bounded batch per
// turn.
//
// Scheduling invariant: each actor carries a scheduled flag
// (IDLE/SCHEDULED). Delivering to an idle actor claims the flag and puts the
// actor on a run queue; the draining worker releases the flag only after an
// authoritative empty check, and re-claims it if a message raced in. An
// actor is therefore on at most one run queue, exactly when its mailbox may
// be non-empty, and is never executed by two workers at once, so handlers
// need no internal locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "mp/message.h"
#include "mp/mpsc_queue.h"
#include "obs/metrics.h"
#include "util/cacheline.h"

namespace cnet::mp {

class ActorRuntime {
 public:
  using Handler = std::function<void(ActorId self, const Message&)>;

  struct Options {
    std::uint32_t workers = 2;  ///< threads draining the run queues

    /// Cooperative park point, polled by each worker after it dequeues an
    /// actor and before it runs the turn. Returning non-zero makes the
    /// worker busy-pause that many nanoseconds — the fault layer's
    /// SIGSTOP-free stand-in for a worker preempted right after winning an
    /// actor: the SCHEDULED claim is held across the pause (legal — the flag
    /// means "owned", senders keep enqueueing) but no lock is, so the pause
    /// delays that actor's turn without blocking anything else. Null (the
    /// default) costs a bool test per turn.
    std::function<std::uint64_t(std::uint32_t worker)> park_point{};
  };

  /// Spawns nothing yet; workers start in start(). Actors must all be added
  /// before run() — see add_actor.
  explicit ActorRuntime(Options options);

  /// Convenience: `workers` threads, no park point.
  explicit ActorRuntime(std::uint32_t workers) : ActorRuntime(Options{workers, {}}) {}

  /// Drains and joins. All expected replies must have been received by the
  /// caller before destruction (no new sends may race the shutdown).
  ~ActorRuntime();

  ActorRuntime(const ActorRuntime&) = delete;
  ActorRuntime& operator=(const ActorRuntime&) = delete;

  /// Registers an actor; returns its id. Not thread-safe; call during setup
  /// (before start()).
  ActorId add_actor(Handler handler);

  /// Builds every actor's mailbox and starts the workers. Call once after
  /// all actors are registered and before any send.
  void start();

  /// Delivers node->msg; callable from any thread and from handlers. The
  /// caller owns the node: it must stay alive, in no other mailbox, until
  /// the receiving actor pops it. The runtime copies the message out before
  /// the handler runs, so a handler may send the node it received. A
  /// handler whose last act is a send makes it a tail call (an inline walk
  /// then nests one frame less per hop).
  void send(ActorId to, MpscNode* node);

  /// send() without the thread-donation fast path: the claimed actor always
  /// goes through the run queues, even from a client thread.
  /// Deadline-bounded operations need this for their initial hop — an
  /// inline send would run the token's whole walk on the waiting thread's
  /// own stack, making the deadline unenforceable (a thread cannot time out
  /// work it is itself executing).
  void send_queued(ActorId to, MpscNode* node);

  /// Optional mailbox-depth probe (borrowed; may be null). When set before
  /// start(), every send() records the receiving actor's post-enqueue
  /// mailbox depth, giving the queueing distribution across all actors (see
  /// docs/OBSERVABILITY.md). The depth is an approximate sharded counter —
  /// one relaxed per-actor cell bumped at enqueue and decremented at drain —
  /// rather than an exact size. Null, the default, leaves each send and each
  /// handled message one null test.
  void observe_queue_depth(obs::LogHistogram* histogram) { queue_depth_ = histogram; }

  /// Messages handled so far, totalled over all actors (per-worker-sharded
  /// counters).
  std::uint64_t messages_processed() const;

 private:
  /// Values of Actor::state. kScheduled covers queued-or-running: the
  /// holder of the transition into it owns the actor's run-queue entry.
  static constexpr std::uint32_t kIdle = 0;
  static constexpr std::uint32_t kScheduled = 1;

  struct alignas(kCacheLine) Actor {
    MpscQueue mailbox;
    std::atomic<std::uint32_t> state{kIdle};
    /// Approximate mailbox depth; maintained only while the depth probe is
    /// attached (otherwise never written, so the line stays clean).
    std::atomic<std::uint32_t> depth{0};
  };

  /// Sharded message counter, one cache line each: slots [0, workers) are
  /// per-worker, slots [workers, workers + kClientStatShards) are shared by
  /// inline-executing client threads (hashed by thread), bumped once per
  /// actor turn with a relaxed fetch_add.
  struct alignas(kCacheLine) WorkerStat {
    std::atomic<std::uint64_t> processed{0};
  };

  void deliver(ActorId to, MpscNode* node, bool allow_inline);
  void worker_loop(std::uint32_t wid);
  void enqueue(ActorId id);
  bool try_all_shards(std::uint32_t wid, ActorId* out);
  bool next_runnable(std::uint32_t wid, ActorId* out);
  /// Runs one actor turn under the SCHEDULED claim; `stat_slot` indexes
  /// worker_stats_ (a worker's own slot or a client shard).
  void run_actor(std::uint32_t stat_slot, ActorId id);
  std::uint32_t client_stat_slot() const;

  static constexpr int kBatch = 16;
  /// Stat shards for inline-executing client threads (see WorkerStat).
  static constexpr std::uint32_t kClientStatShards = 8;
  /// Inline sends nest one frame per mailbox hop; past this depth the send
  /// falls back to the run queues (a worker picks the actor up).
  static constexpr int kInlineDepthMax = 64;

  Options options_;
  std::vector<Handler> handlers_;
  obs::LogHistogram* queue_depth_ = nullptr;

  AlignedArray<Actor> actors_;  ///< one per handler, built by start()
  AlignedArray<MpmcRing> shards_;  ///< one run-queue shard per worker
  AlignedArray<WorkerStat> worker_stats_;  ///< workers + client shards
  std::atomic<std::uint32_t> work_epoch_{0};  ///< bumped to wake sleepers
  std::atomic<std::uint32_t> sleepers_{0};    ///< workers parked on work_epoch_
  std::atomic<bool> stopping_{false};

  std::vector<std::jthread> workers_;
};

}  // namespace cnet::mp
