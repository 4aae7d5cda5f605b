#include "mp/actor_runtime.h"

#include <atomic>

#include "util/assert.h"
#include "util/fence.h"
#include "util/spin.h"

namespace cnet::mp {
namespace {

/// Run-queue shard selection: a worker pushes to its own shard (locality —
/// an actor it wakes is probably hot in its cache); an external client
/// thread rotates across shards so its load spreads over the workers.
struct ShardHint {
  const void* runtime = nullptr;
  std::uint32_t shard = 0;
};
thread_local ShardHint tls_shard_hint{};
thread_local std::uint32_t tls_shard_rotor = 0;

/// Nesting depth of inline (donated-thread) actor turns on this thread: a
/// send from inside an inline turn inlines again, one frame per hop, until
/// the budget trips and the send falls back to the run queues.
thread_local int tls_inline_depth = 0;

/// Per-thread token for picking a client stat shard; process-unique so
/// concurrent clients mostly land on different cache lines.
std::atomic<std::uint32_t> g_client_token{0};
thread_local const std::uint32_t tls_client_token =
    g_client_token.fetch_add(1, std::memory_order_relaxed);

/// Failed idle sweeps over every shard before a worker parks on the futex.
/// Small on purpose: burning a quantum spinning starves the very producer
/// we are waiting for when threads outnumber cores.
constexpr int kIdleSweeps = 32;

/// Bounded exponential backoff between failed sweeps, in cpu_relax units.
/// A sweep is one CAS-contended pop attempt per shard, so idle workers
/// re-sweeping back-to-back form a steal storm that saturates the shard
/// cache lines and slows the very producers they are waiting on. Doubling
/// the pause after each dry sweep (yielding once saturated) bounds the
/// storm's memory traffic while the first successful pop resets to
/// full responsiveness.
constexpr std::uint32_t kBackoffMin = 4;
constexpr std::uint32_t kBackoffMax = 1024;

}  // namespace

ActorRuntime::ActorRuntime(Options options) : options_(options) {
  CNET_CHECK(options_.workers >= 1);
}

ActorRuntime::~ActorRuntime() {
  stopping_.store(true, std::memory_order_seq_cst);
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  work_epoch_.notify_all();
  workers_.clear();  // joins; workers drain whatever is still queued first
}

ActorId ActorRuntime::add_actor(Handler handler) {
  CNET_CHECK_MSG(workers_.empty(), "add_actor must precede start()");
  handlers_.push_back(std::move(handler));
  return static_cast<ActorId>(handlers_.size() - 1);
}

void ActorRuntime::start() {
  CNET_CHECK_MSG(workers_.empty(), "start() called twice");
  workers_.reserve(options_.workers);
  actors_ = AlignedArray<Actor>(handlers_.size());
  // An actor holds at most one run-queue entry (the SCHEDULED flag), so a
  // shard sized past the actor count can never overflow even if every
  // enqueue lands on it; the extra headroom covers slots whose pop is still
  // in flight on another worker.
  const auto capacity = static_cast<std::uint32_t>(actors_.size()) + options_.workers + 1;
  shards_ = AlignedArray<MpmcRing>(options_.workers);
  worker_stats_ = AlignedArray<WorkerStat>(options_.workers + kClientStatShards);
  for (std::uint32_t i = 0; i < options_.workers; ++i) shards_[i].init(capacity);
  for (std::uint32_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void ActorRuntime::send(ActorId to, Message message) {
  CNET_CHECK(to < actors_.size());
  deliver(to, message, /*allow_inline=*/true);
}

void ActorRuntime::send_queued(ActorId to, Message message) {
  CNET_CHECK(to < actors_.size());
  deliver(to, message, /*allow_inline=*/false);
}

std::uint64_t ActorRuntime::messages_processed() const {
  // Acquire: pairs with the release fetch_add after each turn, so a caller
  // that observes `messages_processed() >= N` also observes the handler
  // effects of those N messages ("poll the counter, then assert" is a
  // supported pattern — the tests lean on it).
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < worker_stats_.size(); ++i) {
    total += worker_stats_[i].processed.load(std::memory_order_acquire);
  }
  return total;
}

void ActorRuntime::deliver(ActorId to, Message message, bool allow_inline) {
  Actor& actor = actors_[to];
  MpscNode* node = pool_.acquire();
  node->msg = message;
#if CNET_OBS
  if (queue_depth_ != nullptr) {
    // Approximate sharded depth: one relaxed cell per actor, bumped here
    // and decremented at drain. Post-enqueue depth (docs/OBSERVABILITY.md).
    const std::uint32_t depth = actor.depth.fetch_add(1, std::memory_order_relaxed) + 1;
    queue_depth_->record(to, depth);
  }
#endif
  actor.mailbox.push(node);
  // Schedule if idle. The load filters the common already-scheduled case to
  // avoid an RMW; the CAS + seq_cst push form the Dekker handshake with the
  // consumer's deschedule (store IDLE, then re-check the mailbox).
  if (actor.state.load(std::memory_order_seq_cst) == kIdle) {
    std::uint32_t expected = kIdle;
    if (actor.state.compare_exchange_strong(expected, kScheduled,
                                            std::memory_order_seq_cst)) {
      // Inline fast path: a non-worker sender that won the claim donates its
      // own thread and runs the actor's turn right here — a token then hops
      // the whole network on the client's stack with zero run-queue round
      // trips and zero context switches. Workers keep enqueueing (their
      // drain loop picks the actor from their own shard next anyway), and
      // past the nesting budget the send falls back to the run queues.
      // send_queued disables the donation: a deadline-bounded caller cannot
      // time out work running on its own stack.
      if (allow_inline && tls_shard_hint.runtime != this &&
          tls_inline_depth < kInlineDepthMax) {
        ++tls_inline_depth;
        run_actor(client_stat_slot(), to);
        --tls_inline_depth;
      } else {
        enqueue(to);
      }
    }
  }
}

std::uint32_t ActorRuntime::client_stat_slot() const {
  return options_.workers + tls_client_token % kClientStatShards;
}

void ActorRuntime::enqueue(ActorId id) {
  std::uint32_t shard = 0;
  if (tls_shard_hint.runtime == this) {
    shard = tls_shard_hint.shard;
  } else {
    shard = tls_shard_rotor++ % options_.workers;
  }
  for (std::uint32_t attempt = 0;; ++attempt) {
    // Sized so the own-shard push cannot fail; the spill loop is pure
    // defence in depth for the transient lapped-slot case.
    CNET_CHECK_MSG(attempt < options_.workers * 1024u, "run-queue shards full");
    if (shards_[(shard + attempt) % options_.workers].push(id)) break;
  }
  // Wake syscalls only when somebody actually sleeps: the common loaded
  // case pays one fence + one uncontended load here, nothing more.
  //
  // The fence is the eventcount's mandatory StoreLoad edge. MpmcRing::push
  // publishes the id with a *release* store (cell.seq), and a release store
  // followed by a load — even a seq_cst load — may be reordered through the
  // store buffer (store-buffering litmus; real on x86). Without the fence
  // this thread can read sleepers_ == 0 while a parking worker, whose
  // registration is already globally visible, re-sweeps the shards and
  // misses the not-yet-flushed push: nobody bumps the epoch, every worker
  // stays parked on a runnable actor. The fence pairs with the one in
  // next_runnable: the two are totally ordered, so either our push is
  // visible to the parker's post-registration sweep (our fence first) or
  // its registration is visible to the sleepers_ load below (its fence
  // first) and we bump + notify. (An RMW on sleepers_ would make every
  // enqueue write that line.) TSan cannot see the fence, which only orders
  // atomics for wake-up liveness: messages ride the queues' release/acquire.
  tsan_blind_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) {
    work_epoch_.fetch_add(1, std::memory_order_seq_cst);
    work_epoch_.notify_one();
  }
}

bool ActorRuntime::try_all_shards(std::uint32_t wid, ActorId* out) {
  if (shards_[wid].pop(out)) return true;
  for (std::uint32_t i = 1; i < options_.workers; ++i) {
    if (shards_[(wid + i) % options_.workers].pop(out)) return true;  // steal
  }
  return false;
}

bool ActorRuntime::next_runnable(std::uint32_t wid, ActorId* out) {
  int idle_sweeps = 0;
  std::uint32_t backoff = kBackoffMin;  // see kBackoffMin: steal-storm damping
  for (;;) {
    if (try_all_shards(wid, out)) return true;
    if (stopping_.load(std::memory_order_acquire)) {
      // One authoritative post-stop sweep: the dtor's contract says no new
      // sends race shutdown, so an empty sweep after observing stopping
      // means this worker is done (batch-limit requeues by other workers
      // are re-found by *their* next sweep).
      return try_all_shards(wid, out);
    }
    if (++idle_sweeps < kIdleSweeps) {
      for (std::uint32_t i = 0; i < backoff; ++i) cpu_relax();
      if (backoff < kBackoffMax) {
        backoff <<= 1;
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    // Park. Register as a sleeper first, then re-sweep: a producer that
    // pushed before reading sleepers_ == 0 is caught by this sweep, and one
    // that read sleepers_ != 0 bumps the epoch, so wait(epoch) returns.
    // The fence between registration and the re-sweep is the consumer half
    // of the eventcount handshake (see enqueue): it guarantees the sweep
    // reads the shards *after* the registration is globally visible, so a
    // producer whose fence ordered earlier has its push seen here, and one
    // whose fence ordered later sees sleepers_ != 0 and wakes us.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    tsan_blind_fence(std::memory_order_seq_cst);
    const std::uint32_t epoch = work_epoch_.load(std::memory_order_seq_cst);
    if (try_all_shards(wid, out)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (!stopping_.load(std::memory_order_acquire)) {
      work_epoch_.wait(epoch, std::memory_order_seq_cst);
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    idle_sweeps = 0;
    backoff = kBackoffMin;
  }
}

void ActorRuntime::run_actor(std::uint32_t stat_slot, ActorId id) {
  Actor& actor = actors_[id];
  const Handler& handler = handlers_[id];
  int processed = 0;
  bool requeue = false;
  while (processed < kBatch) {
    MpscNode* node = nullptr;
    const MpscQueue::Pop result = actor.mailbox.pop(&node);
    if (result == MpscQueue::Pop::kEmpty) break;
    if (result == MpscQueue::Pop::kRetry) {
      // A producer is mid-push (possibly preempted). Rather than stall this
      // worker, keep the SCHEDULED claim and revisit the actor later.
      requeue = true;
      break;
    }
    const Message message = node->msg;
    pool_.release(node);  // recycled before the handler so its sends reuse it
#if CNET_OBS
    if (queue_depth_ != nullptr) actor.depth.fetch_sub(1, std::memory_order_relaxed);
#endif
    // Serialized: no other worker runs this actor while state == kScheduled.
    handler(id, message);
    ++processed;
  }
  if (processed != 0) {
    // Once per turn, not per message; client shards are shared across
    // threads, so this must be an RMW. Release so that an acquire read of
    // messages_processed() makes this turn's handler effects visible.
    worker_stats_[stat_slot].processed.fetch_add(static_cast<std::uint64_t>(processed),
                                                 std::memory_order_release);
  }
  if (!requeue && processed == kBatch) requeue = actor.mailbox.maybe_nonempty();
  if (requeue) {
    enqueue(id);  // still holds the SCHEDULED claim
    return;
  }
  // Mailbox drained: release the claim, then re-check — a producer that
  // pushed between our last pop and the IDLE store either sees IDLE and
  // schedules, or we see its push here and reclaim (Dekker; seq_cst pairs
  // with deliver's push/CAS).
  actor.state.store(kIdle, std::memory_order_seq_cst);
  if (actor.mailbox.maybe_nonempty()) {
    std::uint32_t expected = kIdle;
    if (actor.state.compare_exchange_strong(expected, kScheduled,
                                            std::memory_order_seq_cst)) {
      enqueue(id);
    }
  }
}

void ActorRuntime::worker_loop(std::uint32_t wid) {
  tls_shard_hint = ShardHint{this, wid};
  ActorId id = 0;
  while (next_runnable(wid, &id)) {
    // Park point between claiming the actor and running it: the pause
    // delays this actor's turn (and whatever steals would have found us)
    // exactly like a preemption landing after the dequeue, the worker still
    // occupying its core and holding nothing.
    if (options_.park_point) [[unlikely]] busy_wait_ns(options_.park_point(wid));
    run_actor(wid, id);
  }
  tls_shard_hint = ShardHint{};
}

}  // namespace cnet::mp
