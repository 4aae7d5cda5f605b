#include "mp/network_service.h"

#include <chrono>
#include <span>
#include <thread>

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
    bind(metrics_->node_messages, 0, nodes);
    bind(metrics_->counter_messages, nodes, actors);
    bind(metrics_->actor_messages, 0, actors);
  }
#endif
  // Balancer actors: route the token to output port (count++ mod fan_out)
  // and forward it to the next balancer actor or counter actor. A non-zero
  // payload is the token's per-node delay W in ns, busy-waited after the
  // transition and carried along unchanged.
  node_actors_.reserve(net_.node_count());
  for (topo::NodeId id = 0; id < net_.node_count(); ++id) {
    node_actors_.push_back(runtime_.add_actor([this, id](ActorId, const Message& message) {
      const topo::Node& node = net_.node(id);
      // Single writer: a load and a store, no RMW (see counts_).
      const std::uint64_t t = counts_[id].load(std::memory_order_relaxed);
      counts_[id].store(t + 1, std::memory_order_relaxed);
      const topo::OutLink next = node.out[t % node.fan_out];
      busy_wait_ns(message.payload);
      std::uint64_t stall = 0;
      if (fault_ != nullptr) [[unlikely]] {
        // Stall: the token lingers on this hop (keyed by the node's layer so
        // stall:p:ns:hop plans can target one stage of the network). Delay:
        // the forward itself is late. Both are busy time on the hosting
        // worker — exactly a slow link in the asynchronous model.
        stall = fault_->stall_ns(id, node.layer);
        busy_wait_ns(stall);
        const std::uint32_t to = next.node == topo::kNoNode
                                     ? static_cast<std::uint32_t>(net_.node_count()) + next.port
                                     : next.node;
        busy_wait_ns(fault_->delivery_delay_ns(to));
      }
      if (recorder_ != nullptr) [[unlikely]] {
        recorder_->hop(message.context, id, static_cast<std::uint32_t>(t % node.fan_out), stall);
      }
      if (next.node == topo::kNoNode) {
        runtime_.send(counter_actors_[next.port], message);
      } else {
        runtime_.send(node_actors_[next.node], message);
      }
    }));
  }
  // Counter actors: assign the value and wake the client through its
  // response cell. A completion that loses to a timed-out waiter parks the
  // value and donates the abandoned cell back to the arena (see
  // mp/response_cell.h for the ownership handoff).
  counter_actors_.reserve(net_.output_width());
  for (std::uint32_t port = 0; port < net_.output_width(); ++port) {
    counter_actors_.push_back(runtime_.add_actor([this, port](ActorId, const Message& message) {
      std::atomic<std::uint64_t>& count = counts_[net_.node_count() + port];
      const std::uint64_t a = count.load(std::memory_order_relaxed);
      count.store(a + 1, std::memory_order_relaxed);
      const std::uint64_t value = port + a * net_.output_width();
      auto* cell = static_cast<ResponseCell*>(message.context);
      // Commit before completing: the moment the client wakes, the cell
      // can be released and reissued, and the recorder keys on it.
      if (recorder_ != nullptr) [[unlikely]] recorder_->commit(cell, value);
      if (!cell->complete(value)) {
        park_value(value);
        ResponseCellCache::donate_abandoned(cell);
      }
      // Last: a drain that observes zero must observe this token's
      // delivery (or parking) too.
      in_flight_.fetch_sub(1, std::memory_order_release);
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
    metrics_->node_messages.release();
    metrics_->counter_messages.release();
    metrics_->actor_messages.release();
  }
#endif
}

std::uint64_t NetworkService::count_delayed(std::uint32_t input, std::uint64_t wait_ns) {
  CNET_CHECK(input < net_.input_width());
  std::uint64_t parked = 0;
  if (try_pop_parked(&parked)) return parked;
  const std::uint64_t t_start = CNET_OBS && metrics_ != nullptr ? obs::now_ns() : 0;
  ResponseCell* cell = ResponseCellCache::acquire();
  if (recorder_ != nullptr) [[unlikely]] recorder_->issue(cell, input);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  runtime_.send(node_actors_[net_.inputs()[input].node], Message{wait_ns, cell});
  const std::uint64_t value = cell->await();
  ResponseCellCache::release(cell);
  record_completion(input, t_start);
  return value;
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
  CNET_CHECK(input < net_.input_width());
  Pending pending;
  pending.input = input;
  if (try_pop_parked(&pending.value)) return pending;  // cell stays null
  pending.start_ns = CNET_OBS && metrics_ != nullptr ? obs::now_ns() : 0;
  pending.cell = ResponseCellCache::acquire();
  if (recorder_ != nullptr) [[unlikely]] recorder_->issue(pending.cell, input);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  // send_queued, not send: the runtime's inline fast path would
  // donate THIS thread to run the token's entire walk (stalls included),
  // which would serialize a burst of begins and make a deadline-bounded
  // collect unenforceable (a thread cannot time out work it is itself
  // executing). An asynchronously issued token is hosted by the workers
  // from hop one.
  runtime_.send_queued(node_actors_[net_.inputs()[input].node], Message{wait_ns, pending.cell});
  return pending;
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
