// Real-thread executor for any topo::Network: the library's production-grade
// shared counter.
//
// Every balancing node becomes a fetch-add toggle: a single atomic traversal
// counter whose t-th token leaves on port t mod fan_out. This is the classic
// lock-free shared-memory balancer of [4] generalized to any fan-out (for 2x2
// it degenerates to the toggle bit).
//
// The paper's §5 balancer variants live in psim only (psim/balancer.h),
// where Figures 5-7 need them: MCS-locked toggles and the diffracting
// tree's prisms [21]/[20]. On real threads neither was ever faster than the
// plain toggle (EXPERIMENTS.md, "rt keeps no prism" and "rt keeps one
// balancer"), so rt counts every network through fetch-add toggles.
//
// Output port Y_i hands out i, i+w, i+2w, ... via a per-output atomic.
//
// Walking the topo::Network graph directly would chase Node/OutLink
// pointers through std::vector<Node> on every token — three dependent loads
// per layer before the balancer atomic is even touched. The counter
// compiles the network once, at construction, into contiguous
// structure-of-arrays form:
//
//   * one successor table `succ_[succ_offset_[n] + port]` holding the packed
//     next hop (node index, or kOutputBit | output port) — a single load per
//     layer;
//   * per-node balancer state in one dense array of cache-line-aligned
//     toggles, so a token touches exactly one contended line per node and no
//     unique_ptr indirection;
//   * pass-through (1-in/1-out, Cor 3.12 padding) nodes compiled away on
//     every walk: the successor and entry tables resolve pass chains, which
//     routing cannot observe (a pass node's port is always 0). A padded
//     network hands out its base's values, and its pass hops cost no time,
//     so padding buys no Cor 3.12 guarantee here;
//   * a homogeneity profile: when every balancer has fan-out 2 (bitonic,
//     periodic, padded networks, counting trees — the common production
//     configurations), traversal runs a specialized loop with `% fan_out`
//     strength-reduced to `& 1`.
//
// next_batch() moves a caller-supplied batch through the network as one
// wave. The k tokens enter as one count; each balancer they reach takes one
// state step for the c tokens arriving together (the toggle's fetch_add(c))
// and splits c into per-port sub-batches by the t mod fan_out rule: the
// step's first count t0 sends its j-th token out of port (t0 + j) mod
// fan_out. Sub-batches that meet at a node merge, because the wave visits
// nodes in layer order and touches only the nodes its tokens reach. Each
// exit port then claims its block with one fetch_add(c), expanded locally to
// port + (nth + i) * w. One state step for c tokens is c consecutive
// crossings of that balancer, so a wave is a legal interleaving
// of its tokens: the counting and step properties hold under concurrency,
// and single-threaded a batch claims the values k next() calls would claim.
// It returns them ascending, which on a counting network is exactly the
// sequence those calls return.
//
// Single-threaded, a toggle routes as the sequential balancer does (t-th
// token out of port t mod fan_out), so the counter's values match
// topo::SequentialRouter token for token (tests/rt_network_counter_test.cpp
// cross-checks the two).
//
// Thread identity: callers pass a small dense `thread_id` (unique among
// concurrent callers, below CounterOptions::max_threads), which picks the
// caller's obs shard and, through next(thread_id), its entry input. Routing
// itself is oblivious to threads.
//
// Observability: point CounterOptions::metrics at an obs::CounterMetrics to
// record throughput and sampled latencies; per-balancer visits are read
// from the balancer state, and the counter's destructor leaves their final
// totals in the sink (docs/OBSERVABILITY.md documents every metric). A null
// sink turns the instrumentation off and leaves the hot path its null tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rt/degrade_guard.h"
#include "topo/network.h"
#include "util/cacheline.h"

namespace cnet::obs {
struct CounterMetrics;  // obs/backend_metrics.h
}

namespace cnet::rt {

/// Configuration of an rt::NetworkCounter. The defaults are the production
/// setup: no instrumentation.
struct CounterOptions {
  /// Maximum concurrent threads: next() and next_batch() check that
  /// thread_id stays below it.
  std::uint32_t max_threads = 256;

  /// Observability sink (borrowed; may be null). When non-null, the counter
  /// records throughput and sampled token/hop latencies into it, and the
  /// sink reads per-balancer visits from the balancer state (see
  /// obs/backend_metrics.h and docs/OBSERVABILITY.md). Null records nothing:
  /// a walk or a batch then pays only its null tests. The sink must outlive
  /// the counter and observes one counter in its lifetime; on an adopted
  /// PlanArena it reads every attached process's tokens.
  obs::CounterMetrics* metrics = nullptr;

  /// Degraded-mode guard policy over the c2/c1 estimator (rt/degrade_guard.h).
  /// Effective only with a metrics sink — the guard watches
  /// metrics->hop_latency_ns and runs from the sampled tokens; without the
  /// estimator there is nothing to trip on, and the counter leaves the
  /// guard unconstructed.
  DegradePolicy degrade = DegradePolicy::kOff;
};

/// Called after each node traversal when instrumenting a token's walk: the
/// run layer injects the paper's W-cycle waits here, the fault injector
/// charges stall: debits, and the schedule recorder (sched/trace.h)
/// captures routing decisions. `node` is the traversed node's topo::NodeId
/// (the compiled tables index nodes by topology id) and `port` is the
/// exit port its balancer chose.
using NodeHook = void (*)(void* ctx, std::uint32_t node, std::uint32_t port);

/// Caller-provided home for a counter's shared balancer state (toggles and
/// exit-port counters). The arena must be at least
/// NetworkCounter::state_footprint() bytes, aligned to
/// NetworkCounter::state_align() — a shm::Workspace object qualifies,
/// which is how one counter's state is driven by N worker processes (see
/// deploy/counter_deploy.h). Default-constructed ({}) means "no arena":
/// the counter owns a private cache-line-aligned heap block, which is the
/// in-process production configuration and behaves identically.
struct PlanArena {
  void* base = nullptr;  ///< null = counter-owned heap allocation
  std::size_t size = 0;
  /// false: construct (zero) the state in place — the first process, or any
  /// in-process use. true: adopt state another process already constructed
  /// in the same arena (same network): offsets are recomputed
  /// locally and the live atomics are left untouched, which is what a
  /// restarted tile does after re-attaching its workspace.
  bool attach = false;
};

/// A topo::Network compiled to structure-of-arrays form for real-thread
/// execution (see the file comment for the layout). Construct once, then
/// call next()/next_batch() from any number of threads.
class NetworkCounter {
 public:
  /// Compiles `net` (the counter keeps it; it is self-contained) for the
  /// given options. The shared balancer state lives in `arena`, or in a
  /// counter-owned heap block when the arena is empty (see PlanArena); the
  /// compiled topology tables stay process-local either way.
  explicit NetworkCounter(topo::Network net, const CounterOptions& options = {},
                          const PlanArena& arena = {});
  ~NetworkCounter();

  /// Bytes of shared state a counter compiled from `net` places into its
  /// arena. Deterministic: every process that computes it for the same
  /// network computes the same footprint and internal offsets.
  static std::size_t state_footprint(const topo::Network& net);
  /// Required arena alignment.
  static constexpr std::size_t state_align() { return kCacheLine; }

  NetworkCounter(const NetworkCounter&) = delete;
  NetworkCounter& operator=(const NetworkCounter&) = delete;

  /// Routes one token entering at `input`; returns the counter value.
  /// Thread-safe; `thread_id` must be < options.max_threads and unique among
  /// concurrent callers.
  std::uint64_t next(std::uint32_t thread_id, std::uint32_t input) {
    return next_hooked(thread_id, input, nullptr, nullptr);
  }

  /// Enters where the network places issuer `thread_id`:
  /// network().issuer_input(thread_id), which keeps concurrent callers
  /// 0, 1, 2, ... on disjoint balancers as long as the wiring allows
  /// (topo/network.h).
  std::uint64_t next(std::uint32_t thread_id) {
    return next(thread_id, net_.issuer_input(thread_id));
  }

  /// As next(), invoking `after_node(ctx, node, port)` after every balancer
  /// traversal (pass-through nodes are compiled away on every walk).
  std::uint64_t next_hooked(std::uint32_t thread_id, std::uint32_t input, NodeHook after_node,
                            void* ctx);

  /// Routes out.size() tokens entering at `input` as one wave (see the file
  /// comment) and writes their counter values in ascending order.
  /// Single-threaded, on a counting network, this equals out.size()
  /// successive next() calls; under concurrency the values stay globally
  /// unique. With an obs sink, the batch's sampled tokens walk alone
  /// through the timed path first and the rest ride the wave.
  void next_batch(std::uint32_t thread_id, std::uint32_t input, std::span<std::uint64_t> out);

  /// The topology this counter executes (the construction-time copy).
  const topo::Network& network() const { return net_; }
  std::uint32_t input_width() const { return input_width_; }
  std::uint32_t output_width() const { return output_width_; }

  /// Tokens that exited so far (sum over outputs); linearizably exact only
  /// in quiescence.
  std::uint64_t issued() const;

  /// Tokens that exited via output `port` so far — the ground truth for
  /// step-property checks when some claimed values never made it into a
  /// history (a SIGKILLed worker tile).
  std::uint64_t output_count(std::uint32_t port) const;

  /// True when traversal runs the hoisted fan-out-2 loop (exposed for
  /// tests).
  bool homogeneous_toggle_fan2() const { return homogeneous_toggle_fan2_; }

  /// The degraded-mode guard, when CounterOptions::degrade enabled one
  /// (null otherwise — also when no metrics sink was given, since the guard
  /// watches the obs estimator).
  const DegradeGuard* degrade_guard() const { return guard_.get(); }

 private:
  enum class Kind : std::uint8_t { kToggle, kPass };

  struct alignas(kCacheLine) ToggleState {
    std::atomic<std::uint64_t> count{0};
  };

  /// Arena section offsets: where the toggle and output arrays live relative
  /// to the arena base. Pure function of the network — see
  /// state_footprint()'s determinism contract.
  struct StateLayout {
    std::uint32_t n_toggles = 0;
    std::size_t outputs_off = 0;
    std::size_t total = 0;
  };
  static StateLayout compute_layout(const topo::Network& net);
  static Kind classify(const topo::Node& node);

  /// Packed hop: node index, or kOutputBit | network output port.
  static constexpr std::uint32_t kOutputBit = 0x80000000u;

  std::uint64_t cross(std::uint32_t node, std::uint64_t tokens);
  std::uint32_t traverse(std::uint32_t node);
  std::uint32_t route(std::uint32_t thread_id, std::uint32_t input, NodeHook after_node,
                      void* ctx);
  std::uint32_t route_timed(std::uint32_t thread_id, std::uint32_t input, NodeHook after_node,
                            void* ctx);
  /// route() plus the exit port's claim: one token's value, unchecked.
  std::uint64_t walk(std::uint32_t thread_id, std::uint32_t input, NodeHook after_node,
                     void* ctx);
  void bind_state_counts();

  std::uint32_t input_width_ = 0;
  std::uint32_t output_width_ = 0;
  std::uint32_t max_threads_ = 0;
  bool homogeneous_toggle_fan2_ = false;
  obs::CounterMetrics* metrics_ = nullptr;  ///< CounterOptions::metrics; null = off
  std::unique_ptr<DegradeGuard> guard_;     ///< set iff a degrade policy is active

  // --- compiled topology (immutable after construction) -----------------
  std::vector<Kind> kind_;                 ///< per node
  std::vector<std::uint32_t> fan_out_;     ///< per node
  std::vector<std::uint32_t> state_idx_;   ///< per node, into toggles_
  std::vector<std::uint32_t> succ_offset_; ///< per node, into succ_
  /// Packed hops, grouped by node, and the hop each network input enters
  /// at; both with pass chains resolved.
  std::vector<std::uint32_t> succ_;
  std::vector<std::uint32_t> entry_;
  /// Wave positions: the balancers (pass nodes excluded) in layer order,
  /// then the exit ports. wave_node_[pos] is a balancer's node id and
  /// wave_pos_[node] its position; exit port p sits at wave_node_.size() + p.
  std::vector<std::uint32_t> wave_node_;
  std::vector<std::uint32_t> wave_pos_;

  // --- balancer state, dense, in one arena block ---------------------------
  // Raw pointers into either `owned_` (default: private heap block) or a
  // caller-provided PlanArena (workspace deployment). Section order is
  // toggles | outputs, per compute_layout().
  ToggleState* toggles_ = nullptr;
  Padded<std::atomic<std::uint64_t>>* outputs_ = nullptr;
  void* owned_ = nullptr;  ///< set iff the counter allocated its own arena

  topo::Network net_;
};

}  // namespace cnet::rt
