#include "rt/network_counter.h"

#include "util/assert.h"
#include "util/spin.h"

namespace cnet::rt {

NetworkCounter::NetworkCounter(topo::Network net, CounterOptions options)
    : NetworkCounter(std::move(net), options, PlanArena{}) {}

std::size_t NetworkCounter::plan_state_footprint(const topo::Network& net,
                                                 const CounterOptions& options) {
  return RoutingPlan::state_footprint(net, options);
}

NetworkCounter::NetworkCounter(topo::Network net, CounterOptions options,
                               const PlanArena& arena)
    : net_(std::move(net)), max_threads_(options.max_threads), plan_(net_, options, arena) {
#if CNET_OBS
  // The guard watches the obs hop-latency estimator, so it only exists when
  // there is a sink to watch (and never in a CNET_OBS=0 build).
  if (options.degrade != DegradePolicy::kOff && options.metrics != nullptr) {
    guard_ = std::make_unique<DegradeGuard>(options.degrade, options.metrics, net_.depth());
  }
#endif
}

NetworkCounter::~NetworkCounter() = default;

void NetworkCounter::guard_entry(std::uint64_t tokens) {
  guard_->on_token(tokens);
  // Cor 3.12's pass chain, priced in time: the token is "in the network"
  // (crossing pass-through nodes) for pad_ns before its first balancer.
  busy_wait_ns(guard_->pad_ns());
}

std::uint64_t NetworkCounter::next_hooked(std::uint32_t thread_id, std::uint32_t input,
                                          NodeHook after_node, void* ctx) {
  CNET_CHECK(input < net_.input_width());
  CNET_CHECK(thread_id < max_threads_);
  if (guard_) [[unlikely]] guard_entry(1);
  return plan_.next_hooked(thread_id, input, after_node, ctx);
}

void NetworkCounter::next_batch(std::uint32_t thread_id, std::uint32_t input,
                                std::span<std::uint64_t> out) {
  CNET_CHECK(input < net_.input_width());
  CNET_CHECK(thread_id < max_threads_);
  // A batch advances the guard's clock by its size but is one traversal:
  // one pad charge.
  if (guard_) [[unlikely]] guard_entry(out.size());
  plan_.next_batch(thread_id, input, out);
}

}  // namespace cnet::rt
