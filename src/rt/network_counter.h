// Real-thread executor for any topo::Network: the library's production-grade
// shared counter.
//
// Every balancing node becomes one of:
//  * FetchAdd  — a single atomic traversal counter; the t-th token leaves on
//                port t mod fan_out. This is the classic lock-free
//                shared-memory balancer of [4] generalized to any fan-out
//                (for 2x2 it degenerates to the toggle bit).
//  * McsLocked — the paper's §5 configuration: the traversal counter inside
//                a critical section protected by an MCS queue lock.
//  * Prism     — for 1-in/2-out nodes when diffraction is enabled: the
//                prism balancer of [21]/[20]; tokens try to pair on a random
//                prism slot and collided pairs leave on opposite outputs
//                without touching the toggle.
//
// Output port Y_i hands out i, i+w, i+2w, ... via a per-output atomic.
//
// Tokens run through a compiled rt::RoutingPlan (flattened successor tables,
// per-kind dense balancer state, batched output claims — see
// routing_plan.h); NetworkCounter adds the topology copy, the argument
// checks and the degraded-mode guard around it.
//
// Thread identity: callers pass a small dense `thread_id` (unique among
// concurrent callers) used for prism pairing and the RNG streams. The
// counter itself is otherwise oblivious to threads; MCS queue nodes live on
// the caller's stack.
//
// Observability: point CounterOptions::metrics at an obs::CounterMetrics to
// record throughput, prism pairings and sampled latencies; per-balancer
// visits and MCS/prism-toggle counts are read from the plan's balancer
// state, and the counter's destructor leaves their final totals in the
// sink (docs/OBSERVABILITY.md documents every metric; builds with
// CNET_OBS=0 compile the instrumentation out entirely).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "rt/routing_plan.h"
#include "topo/network.h"

namespace cnet::rt {

class NetworkCounter {
 public:
  /// Takes a copy of the topology, so the counter is self-contained.
  explicit NetworkCounter(topo::Network net, CounterOptions options = {});

  /// As above with the compiled plan's shared balancer state placed in
  /// `arena` (rt::PlanArena; must be plan_state_footprint() bytes at
  /// RoutingPlan::state_align()). This is how a workspace-resident counter
  /// is shared by worker processes (see deploy/counter_deploy.h).
  NetworkCounter(topo::Network net, CounterOptions options, const PlanArena& arena);
  ~NetworkCounter();

  /// Bytes of shared state the compiled plan for (net, options) places in
  /// its arena; deterministic across processes on one host.
  static std::size_t plan_state_footprint(const topo::Network& net,
                                          const CounterOptions& options = {});

  NetworkCounter(const NetworkCounter&) = delete;
  NetworkCounter& operator=(const NetworkCounter&) = delete;

  /// Routes one token entering at `input`; returns the counter value.
  /// Thread-safe; `thread_id` must be < options.max_threads and unique among
  /// concurrent callers.
  std::uint64_t next(std::uint32_t thread_id, std::uint32_t input) {
    return next_hooked(thread_id, input, nullptr, nullptr);
  }

  /// Called after each node traversal when instrumenting a token's walk
  /// (the run layer injects the paper's W-cycle waits through this and
  /// the schedule recorder captures the (node, port) routing decisions).
  using NodeHook = rt::NodeHook;

  /// As next(), invoking `after_node(ctx, node, port)` after every node
  /// traversal.
  std::uint64_t next_hooked(std::uint32_t thread_id, std::uint32_t input, NodeHook after_node,
                            void* ctx);

  /// Routes out.size() tokens entering at `input`, writing their counter
  /// values in order. Amortizes entry lookup and batches the per-output
  /// fetch_add (one RMW per distinct exit port). Equivalent to out.size()
  /// successive next() calls when single-threaded; values always remain
  /// globally unique.
  void next_batch(std::uint32_t thread_id, std::uint32_t input, std::span<std::uint64_t> out);

  /// Convenience for single-input networks (trees) or "any input" use:
  /// enters at input thread_id mod input_width.
  std::uint64_t next(std::uint32_t thread_id) {
    return next(thread_id, thread_id % net_.input_width());
  }

  /// The topology this counter executes (the construction-time copy).
  const topo::Network& network() const { return net_; }

  /// Tokens that exited so far (sum over outputs); linearizably exact only
  /// in quiescence.
  std::uint64_t issued() const { return plan_.issued(); }

  /// The degraded-mode guard, when CounterOptions::degrade enabled one
  /// (null otherwise — also when no metrics sink was given, since the guard
  /// watches the obs estimator).
  const DegradeGuard* degrade_guard() const { return guard_.get(); }

 private:
  /// Guard preamble shared by every token path: count the token toward the
  /// estimator check cadence and, once the kPad policy has tripped, charge
  /// the Cor 3.12 pass-chain time before the token enters the network.
  void guard_entry();

  topo::Network net_;
  std::uint32_t max_threads_;
  std::unique_ptr<DegradeGuard> guard_;  ///< set iff degrade policy active
  RoutingPlan plan_;
};

}  // namespace cnet::rt
