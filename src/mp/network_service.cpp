#include "mp/network_service.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "fault/injector.h"
#include "mp/response_cell.h"
#include "obs/backend_metrics.h"
#include "sched/trace.h"
#include "util/assert.h"
#include "util/spin.h"

namespace cnet::mp {
namespace {

/// The destructor's drain budget. Tokens cannot be lost (mailboxes are
/// reliable, handlers always forward or complete), so quiescence is reached
/// as soon as the workers catch up; the bound exists to turn a hypothetical
/// lost token into a loud assertion instead of an unbounded hang — or,
/// worse, a use-after-free inside a worker once teardown proceeds.
constexpr std::uint64_t kDtorDrainNs = 30'000'000'000ull;

}  // namespace

ActorRuntime::Options NetworkService::runtime_options(const Options& options) {
  ActorRuntime::Options rt;
  rt.workers = options.workers;
  if (options.fault != nullptr && options.fault->plan().has_pauses()) {
    fault::Injector* inj = options.fault;
    rt.park_point = [inj](std::uint32_t wid) { return inj->pause_ns(wid); };
  }
  return rt;
}

NetworkService::NetworkService(topo::Network net, Options options)
    : net_(std::move(net)),
      fault_(options.fault),
      runtime_(runtime_options(options)),
      counts_(net_.node_count() + net_.output_width()) {
#if CNET_OBS
  if (options.metrics != nullptr) {
    metrics_ = options.metrics;
    metrics_->attach();
    runtime_.observe_queue_depth(&metrics_->queue_depth);
    const auto bind = [this](obs::StateCounts& counts, std::uint32_t from, std::uint32_t to) {
      counts.bind(to - from, [this, from](std::span<std::uint64_t> out) {
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] += counts_[from + i].load(std::memory_order_relaxed);
        }
      });
    };
    const auto nodes = static_cast<std::uint32_t>(net_.node_count());
    const auto actors = static_cast<std::uint32_t>(counts_.size());
    bind(metrics_->node_visits, 0, nodes);
    bind(metrics_->counter_visits, nodes, actors);
    bind(metrics_->actor_visits, 0, actors);
  }
#endif
  // Balancer actors. A message is a wave of c >= 1 cells (see the file
  // comment in network_service.h): read the count t once, store t + c, and
  // deal cell j to port (t + j) mod fan_out, forwarding one message per
  // port that got cells to the next balancer actor or counter actor. A
  // non-zero payload is the per-node delay W in ns, busy-waited after the
  // transition and carried along unchanged.
  node_actors_.reserve(net_.node_count());
  for (topo::NodeId id = 0; id < net_.node_count(); ++id) {
    // heads[k], k >= 1: the first cell of port list k (list 0 starts at the
    // message's head). Scratch owned by this handler, which may reuse it
    // because the actor's turns are serialized.
    std::vector<ResponseCell*> heads(net_.node(id).fan_out);
    node_actors_.push_back(runtime_.add_actor(
        [this, id, heads = std::move(heads)](ActorId, const Message& message) mutable {
          const topo::Node& node = net_.node(id);
          const std::uint32_t fan = node.fan_out;
          auto* const head = static_cast<ResponseCell*>(message.context);
          std::uint64_t c = 0;
          for (const ResponseCell* cell = head; cell != nullptr; cell = cell->next) ++c;
          // Single writer: a load and a store, no RMW (see counts_).
          const std::uint64_t t = counts_[id].load(std::memory_order_relaxed);
          counts_[id].store(t + c, std::memory_order_relaxed);
          const auto first = static_cast<std::uint32_t>(t % fan);
          busy_wait_ns(message.payload);
          std::uint64_t stall = 0;
          if (fault_ != nullptr) [[unlikely]] {
            // Stall: the token lingers on this hop (keyed by the node's
            // layer so stall:p:ns:hop plans can target one stage of the
            // network). Busy time on the hosting worker — exactly a slow
            // link in the asynchronous model.
            stall = fault_->stall_ns(id, node.layer);
            busy_wait_ns(stall);
          }
          if (recorder_ != nullptr) [[unlikely]] {
            recorder_->hop(message.context, id, first, stall);
          }
          // Deal: port list k (leaving on port first + k) is cells k,
          // k + fan, k + 2 fan, ... in wave order, so relink every cell to
          // the one fan places on. `trail` rewrites cell j's link while
          // `lead` walks cell j + fan; both read links not yet rewritten.
          const std::uint64_t lists = c < fan ? c : fan;
          ResponseCell* lead = head->next;
          for (std::uint64_t k = 1; k < lists; ++k, lead = lead->next) heads[k] = lead;
          ResponseCell* trail = head;
          for (; lead != nullptr; lead = lead->next) trail = std::exchange(trail->next, lead);
          // The last `lists` cells each end one list, and trail is at the
          // first of them; all but the wave's final cell still point on.
          for (std::uint64_t k = 1; k < lists; ++k) trail = std::exchange(trail->next, nullptr);
          const auto forward = [&](std::uint32_t port, ResponseCell* cells) {
            const topo::OutLink out = node.out[port];
            const ActorId to =
                out.node == topo::kNoNode ? counter_actors_[out.port] : node_actors_[out.node];
            // Delay: the forward itself is late, also busy time.
            if (fault_ != nullptr) [[unlikely]] busy_wait_ns(fault_->delivery_delay_ns(to));
            runtime_.send(to, Message{message.payload, cells});
          };
          std::uint32_t port = first;
          for (std::uint64_t k = 1; k < lists; ++k) {
            port = port + 1 == fan ? 0 : port + 1;
            forward(port, heads[k]);
          }
          // List 0 last: as the handler's final call, the send of an inline
          // walk becomes a tail call instead of one more frame per hop.
          forward(first, head);
        }));
  }
  // Counter actors: give the j-th cell of the wave the value
  // port + (a + j) * width and wake its client. A completion that loses to
  // a timed-out waiter parks the value and donates the abandoned cell back
  // to the arena (see mp/response_cell.h for the ownership handoff).
  counter_actors_.reserve(net_.output_width());
  for (std::uint32_t port = 0; port < net_.output_width(); ++port) {
    counter_actors_.push_back(runtime_.add_actor([this, port](ActorId, const Message& message) {
      std::atomic<std::uint64_t>& count = counts_[net_.node_count() + port];
      const std::uint64_t a0 = count.load(std::memory_order_relaxed);
      std::uint64_t a = a0;
      for (auto* cell = static_cast<ResponseCell*>(message.context); cell != nullptr; ++a) {
        // Read the link first: once completed, the cell may be reissued.
        ResponseCell* const next = cell->next;
        count.store(a + 1, std::memory_order_relaxed);
        const std::uint64_t value = port + a * net_.output_width();
        // Commit before completing: the moment the client wakes, the cell
        // can be released and reissued, and the recorder keys on it.
        if (recorder_ != nullptr) [[unlikely]] recorder_->commit(cell, value);
        if (!cell->complete(value)) {
          park_value(value);
          ResponseCellCache::donate_abandoned(cell);
        }
        cell = next;
      }
      // Last: a drain that observes zero must observe these tokens'
      // deliveries (or parkings) too.
      in_flight_.fetch_sub(a - a0, std::memory_order_release);
    }));
  }
  runtime_.start();
}

NetworkService::~NetworkService() {
  // The actor-id tables and the actor counts are declared after
  // runtime_, so they are destroyed before the workers join; any token
  // still hopping at that point — possible exactly when a deadline
  // abandoned it — would be a use-after-free inside a handler. Establish
  // quiescence first.
  const DrainReport report = drain(kDtorDrainNs);
  CNET_CHECK_MSG(report.quiescent, "NetworkService destroyed with tokens still in flight");
#if CNET_OBS
  if (metrics_ != nullptr) {  // quiescent: these readings are the final totals
    metrics_->node_visits.release();
    metrics_->counter_visits.release();
    metrics_->actor_visits.release();
  }
#endif
}

void NetworkService::issue(std::uint32_t input, std::uint64_t wait_ns, std::span<Pending> wave,
                           bool queued) {
  CNET_CHECK(input < net_.input_width());
  const std::uint64_t start_ns = CNET_OBS && metrics_ != nullptr ? obs::now_ns() : 0;
  ResponseCell* head = nullptr;
  ResponseCell* tail = nullptr;
  std::uint64_t tokens = 0;
  for (Pending& pending : wave) {
    pending = Pending{};
    pending.input = input;
    if (try_pop_parked(&pending.value)) continue;  // cell stays null
    pending.start_ns = start_ns;
    pending.cell = ResponseCellCache::acquire();
    if (recorder_ != nullptr) [[unlikely]] recorder_->issue(pending.cell, input);
    (head == nullptr ? head : tail->next) = pending.cell;
    tail = pending.cell;
    ++tokens;
  }
  if (tokens == 0) return;
  in_flight_.fetch_add(tokens, std::memory_order_relaxed);
  // send_queued, not send, for the asynchronous entry points: the runtime's
  // inline fast path would donate THIS thread to run the wave's entire walk
  // (stalls included), and a deadline-bounded collect cannot time out work
  // its own thread is executing. An asynchronously issued wave is hosted by
  // the workers from hop one.
  const ActorId entry = node_actors_[net_.inputs()[input].node];
  const auto send = [&](ResponseCell* cell) {
    if (queued) {
      runtime_.send_queued(entry, Message{wait_ns, cell});
    } else {
      runtime_.send(entry, Message{wait_ns, cell});
    }
  };
  if (fault_ == nullptr && recorder_ == nullptr) [[likely]] {
    send(head);
    return;
  }
  // Stalls, delivery delays and capture are per hop and per token: keep
  // their rates independent of the batch size with one message per token.
  for (ResponseCell* cell = head; cell != nullptr;) {
    ResponseCell* const next = std::exchange(cell->next, nullptr);
    send(cell);
    cell = next;
  }
}

std::uint64_t NetworkService::count_delayed(std::uint32_t input, std::uint64_t wait_ns) {
  Pending pending;
  issue(input, wait_ns, {&pending, 1}, /*queued=*/false);
  return count_collect(pending);
}

void NetworkService::record_completion(std::uint32_t input, std::uint64_t start_ns) {
  if (metrics_ == nullptr || start_ns == 0) return;
  metrics_->tokens.add(input);
  metrics_->count_latency_ns.record(input, obs::now_ns() - start_ns);
}

NetworkService::TimedCount NetworkService::count_until(std::uint32_t input,
                                                       std::uint64_t wait_ns,
                                                       std::uint64_t timeout_ns) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout_ns);
  return count_collect_until(count_begin(input, wait_ns), deadline);
}

NetworkService::Pending NetworkService::count_begin(std::uint32_t input,
                                                    std::uint64_t wait_ns) {
  Pending pending;
  issue(input, wait_ns, {&pending, 1}, /*queued=*/true);
  return pending;
}

void NetworkService::count_begin_batch(std::uint32_t input, std::span<Pending> out) {
  issue(input, 0, out, /*queued=*/true);
}

void NetworkService::count_batch(std::uint32_t input, std::span<std::uint64_t> out) {
  thread_local std::vector<Pending> wave;  // reused: a warm batch allocates nothing
  wave.resize(out.size());
  issue(input, 0, wave, /*queued=*/false);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = count_collect(wave[i]);
  // Ascending, as out.size() count() calls return them single-threaded on
  // a counting network.
  std::sort(out.begin(), out.end());
}

std::uint64_t NetworkService::count_collect(const Pending& pending) {
  if (pending.cell == nullptr) return pending.value;
  const std::uint64_t value = pending.cell->await();
  ResponseCellCache::release(pending.cell);
  record_completion(pending.input, pending.start_ns);
  return value;
}

NetworkService::TimedCount NetworkService::count_collect_until(
    const Pending& pending, std::chrono::steady_clock::time_point deadline) {
  if (pending.cell == nullptr) return {true, pending.value};
  const ResponseCell::TimedWait wait = pending.cell->await_until(deadline);
  if (!wait.ok) {
    // Abandoned: the cell now belongs to the late completer (it parks the
    // value and donates the cell to the arena) — no release here.
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  ResponseCellCache::release(pending.cell);
  record_completion(pending.input, pending.start_ns);
  return {true, wait.value};
}

NetworkService::DrainReport NetworkService::drain(std::uint64_t deadline_ns) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::nanoseconds(deadline_ns);
  std::chrono::microseconds nap{1};
  DrainReport report;
  for (;;) {
    // Acquire pairs with the counter actors' release decrement: zero here
    // means every issued token's delivery (or parking) is visible.
    const std::uint64_t live = in_flight_.load(std::memory_order_acquire);
    if (live == 0) {
      report.quiescent = true;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      report.strays = live;
      break;
    }
    std::this_thread::sleep_for(nap);
    if (nap < std::chrono::microseconds{256}) nap *= 2;
  }
  report.waited_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  return report;
}

std::vector<std::uint64_t> NetworkService::take_parked() {
  const std::scoped_lock lock(parked_mutex_);
  parked_size_.store(0, std::memory_order_release);
  return std::exchange(parked_, {});
}

NetworkService::RobustnessStats NetworkService::robustness_stats() const {
  RobustnessStats s;
  s.in_flight = in_flight_.load(std::memory_order_acquire);
  s.deadline_timeouts = timeouts_.load(std::memory_order_relaxed);
  s.values_parked = parked_total_.load(std::memory_order_relaxed);
  s.values_reclaimed = reclaimed_total_.load(std::memory_order_relaxed);
  s.parked_now = parked_size_.load(std::memory_order_relaxed);
  return s;
}

bool NetworkService::try_pop_parked(std::uint64_t* value) {
  // Cheap probe first: with no faults the buffer is forever empty and the
  // hot path never touches the mutex.
  if (parked_size_.load(std::memory_order_acquire) == 0) return false;
  const std::scoped_lock lock(parked_mutex_);
  if (parked_.empty()) return false;
  *value = parked_.back();
  parked_.pop_back();
  parked_size_.store(parked_.size(), std::memory_order_release);
  reclaimed_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void NetworkService::park_value(std::uint64_t value) {
  const std::scoped_lock lock(parked_mutex_);
  parked_.push_back(value);
  parked_size_.store(parked_.size(), std::memory_order_release);
  parked_total_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cnet::mp
