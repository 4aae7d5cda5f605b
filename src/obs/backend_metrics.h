// The concrete telemetry surface of each execution backend: one plain struct
// of metrics per backend, attached by pointer through the backend's options
// (rt::CounterOptions::metrics, mp::NetworkService::Options::metrics,
// psim::MachineParams::metrics). A null pointer — or a library built with
// CNET_OBS=0 — means the backend records nothing and its hot path is the
// uninstrumented one. Counts the executor already keeps are StateCounts
// read from it; the rest is recorded as it happens.
//
// Every metric name, its unit, and its merge semantics are documented in
// docs/OBSERVABILITY.md; register_into() publishes the struct's metrics
// under those names so cnet_cli stats and embedders render one uniform
// snapshot.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace cnet::obs {

/// Telemetry for the real-thread backend (rt::NetworkCounter /
/// rt::RoutingPlan). One instance observes one counter; construct,
/// optionally tune `sample_period` / enable `trace`, then hand the pointer
/// to rt::CounterOptions::metrics.
struct CounterMetrics {
  /// Timed-token sampling period (power of two; 1 = time every token).
  /// Latency histograms, the c2/c1 estimate, and the trace ring only see
  /// every sample_period-th token per shard; the counts see every token.
  std::uint32_t sample_period = 64;

  ShardedCounter tokens;       ///< counter values handed out; the sampling clock
  ShardedCounter batch_calls;  ///< next_batch invocations
  ShardedCounter sampled;      ///< tokens that took the timed path
  ShardedCounter prism_pairs;  ///< prism visits resolved by diffraction

  /// Read from the plan's state, indexed by topo::Network node id (the
  /// RoutingPlan keeps topology ids); pass-through padding reads 0.
  StateCounts balancer_visits;  ///< per-balancer visits
  StateCounts prism_toggles;    ///< prism visits that fell to the toggle

  LogHistogram token_latency_ns;  ///< entry-to-value, sampled tokens
  LogHistogram hop_latency_ns;    ///< per-balancer traversal, sampled tokens

  /// Optional flight recorder; call trace.enable() before attaching.
  TraceRing trace;

  /// Called by the executor at construction; freezes the sampling mask. A
  /// sink observes one executor in its lifetime (a second attach aborts):
  /// its state counts cannot carry over the way its recorded totals would.
  void attach();

  /// Counts the calling thread's next token and decides whether it is
  /// sampled: `tokens` is the per-shard sampling clock.
  bool should_sample(std::uint32_t thread_id) noexcept {
    return (tokens.add(thread_id) & sample_mask_) == 0;
  }

  /// Counts the `n` tokens of one batch in a single add and returns how
  /// many of them are sampled: the clock values in the batch's range that
  /// are multiples of sample_period, as should_sample() would decide them.
  std::uint64_t sample_batch(std::uint32_t thread_id, std::uint64_t n) noexcept {
    const std::uint64_t first = tokens.add(thread_id, n);
    const std::uint64_t period = sample_mask_ + 1;
    return (first + n + sample_mask_) / period - (first + sample_mask_) / period;
  }

  /// Online estimate of the effective timing ratio c2/c1: the tail/p10
  /// ratio of sampled per-hop latencies. The paper's c1/c2 are the fastest
  /// and slowest link traversal times; a quantile ratio is their
  /// observable counterpart. The default p90 tail is preemption-robust but
  /// *throughput-weighted* — tokens that barely move contribute few hops,
  /// so extreme skew saturates it; pass tail = 0.999 to chase rare slow
  /// links at the cost of also seeing scheduler noise (the trade-off is
  /// measured in EXPERIMENTS.md, "Online c2/c1 estimator"). Returns 1.0
  /// until enough samples exist.
  double c2c1_estimate(double tail = 0.9) const {
    return hop_latency_ns.snapshot().quantile_ratio(0.1, tail);
  }

  /// Publishes every metric under "<prefix>..." names (see
  /// docs/OBSERVABILITY.md for the catalogue).
  void register_into(MetricsRegistry& registry, const std::string& prefix = "rt.") const;

 private:
  std::uint64_t sample_mask_ = 63;
  bool attached_ = false;
};

/// Telemetry for the message-passing backend (mp::NetworkService).
struct MpMetrics {
  ShardedCounter tokens;  ///< counting operations completed

  // Read from the actors' own counts. A visit is one token passing one
  // actor; a message carrying c tokens is c visits, so these count tokens,
  // not messages (node_visits = tokens x depth on a uniform network).
  StateCounts node_visits;     ///< token visits to balancer actors
  StateCounts counter_visits;  ///< token visits to output-counter actors
  /// Visits per actor: balancer actors first (by node id), then
  /// output-counter actors (node_count + port).
  StateCounts actor_visits;

  LogHistogram count_latency_ns;  ///< client-observed count() latency
  LogHistogram queue_depth;       ///< mailbox depth (messages) observed at each enqueue

  /// Called by NetworkService at construction; one service per sink, as
  /// CounterMetrics::attach() explains.
  void attach();

  void register_into(MetricsRegistry& registry, const std::string& prefix = "mp.") const;

 private:
  bool attached_ = false;
};

/// Telemetry for the simulated multiprocessor (psim::run_workload). All
/// latencies are in simulated cycles; recording never touches the engine,
/// so an instrumented run is cycle-for-cycle identical to a bare one.
struct PsimMetrics {
  ShardedCounter ops;           ///< counting operations completed
  ShardedCounter toggles;       ///< balancer toggle transitions
  ShardedCounter diffractions;  ///< prism pairings
  ShardedCounter events;        ///< engine events processed

  LogHistogram op_latency_cycles;   ///< start-to-completion, every operation
  LogHistogram hop_latency_cycles;  ///< per-node traversal, every hop

  /// Optional flight recorder (cycle-stamped; dump with ts_per_us = 1.0 to
  /// view one cycle per microsecond in chrome://tracing).
  TraceRing trace;

  /// Cycle-exact analogue of CounterMetrics::c2c1_estimate(); compare with
  /// the paper's (Tog + W)/Tog from psim::MachineResult. Same tail
  /// semantics: 0.9 measures bulk skew, 0.999 chases rare slow links
  /// (EXPERIMENTS.md quantifies both against the paper's measure).
  double c2c1_estimate(double tail = 0.9) const {
    return hop_latency_cycles.snapshot().quantile_ratio(0.1, tail);
  }

  void register_into(MetricsRegistry& registry, const std::string& prefix = "psim.") const;
};

}  // namespace cnet::obs
