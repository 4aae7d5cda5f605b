#include "rt/routing_plan.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <new>
#include <thread>
#include <utility>

#include "obs/backend_metrics.h"
#include "util/assert.h"
#include "util/rng.h"
#include "util/spin.h"

namespace cnet::rt {
namespace {

constexpr std::uint64_t kPaired = 1ull << 32;

/// Per-thread RNG for prism slot choice (no cross-thread state).
Rng& prism_rng() {
  static std::atomic<std::uint64_t> counter{0x51ed270b0a1efULL};
  thread_local Rng rng(counter.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed));
  return rng;
}

/// A thread's wave scratch: a pending token count per wave position and a
/// bitset of the positions that hold one. Every wave leaves both all-zero,
/// so one scratch serves every plan the thread drives.
struct WaveScratch {
  std::vector<std::uint64_t> pending;
  std::vector<std::uint64_t> live;
};

WaveScratch& wave_scratch(std::size_t positions) {
  thread_local WaveScratch scratch;
  if (scratch.pending.size() < positions) {
    scratch.pending.resize(positions);
    scratch.live.resize((positions + 63) / 64);
  }
  return scratch;
}

/// The root prism width the options ask for, with auto sizing resolved.
/// Deterministic per machine (hardware_concurrency), so cooperating
/// processes on one host compute identical prism layouts.
std::uint32_t effective_prism_width(const CounterOptions& options) {
  if (options.prism_width != 0) return options.prism_width;
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(8u, std::max(2u, hw / 8));
}

}  // namespace

RoutingPlan::Kind RoutingPlan::classify(const topo::Node& node, const CounterOptions& options) {
  if (node.is_pass_through()) return Kind::kPass;
  if (options.diffraction && node.fan_in == 1 && node.fan_out == 2) return Kind::kPrism;
  return options.mode == BalancerMode::kMcsLocked ? Kind::kMcs : Kind::kToggle;
}

RoutingPlan::StateLayout RoutingPlan::compute_layout(const topo::Network& net,
                                                     const CounterOptions& options) {
  const std::uint32_t auto_width = effective_prism_width(options);
  StateLayout layout;
  for (const topo::Node& node : net.nodes()) {
    const Kind kind = classify(node, options);
    layout.n_toggles += kind == Kind::kToggle ? 1 : 0;
    layout.n_mcs += kind == Kind::kMcs ? 1 : 0;
    if (kind == Kind::kPrism) {
      ++layout.n_prisms;
      layout.n_slots += prism_width_for_layer(auto_width, node.layer);
    }
  }
  // Every element type is alignas(kCacheLine) with a cache-line-multiple
  // size, so packing the sections back to back keeps them all aligned.
  std::size_t cursor = 0;
  layout.toggle_off = cursor;
  cursor += layout.n_toggles * sizeof(ToggleState);
  layout.mcs_off = cursor;
  cursor += layout.n_mcs * sizeof(McsState);
  layout.prism_off = cursor;
  cursor += layout.n_prisms * sizeof(PrismCounter);
  layout.slots_off = cursor;
  cursor += layout.n_slots * sizeof(Padded<std::atomic<std::uint64_t>>);
  layout.outputs_off = cursor;
  cursor += net.output_width() * sizeof(Padded<std::atomic<std::uint64_t>>);
  layout.total = cursor;
  return layout;
}

std::size_t RoutingPlan::state_footprint(const topo::Network& net,
                                         const CounterOptions& options) {
  return compute_layout(net, options).total;
}

RoutingPlan::RoutingPlan(const topo::Network& net, const CounterOptions& options)
    : RoutingPlan(net, options, PlanArena{}) {}

RoutingPlan::RoutingPlan(const topo::Network& net, const CounterOptions& options,
                         const PlanArena& arena)
    : input_width_(net.input_width()), output_width_(net.output_width()) {
  const std::uint32_t auto_width = effective_prism_width(options);

  const auto n_nodes = static_cast<std::uint32_t>(net.node_count());
  kind_.resize(n_nodes);
  fan_out_.resize(n_nodes);
  state_idx_.resize(n_nodes);
  succ_offset_.resize(n_nodes);

  // Pass 1: classify nodes and assign dense per-kind state slots (the same
  // classification compute_layout() sizes the sections with).
  std::uint32_t next_idx[static_cast<std::size_t>(Kind::kPass) + 1] = {};
  for (topo::NodeId id = 0; id < n_nodes; ++id) {
    fan_out_[id] = net.node(id).fan_out;
    kind_[id] = classify(net.node(id), options);
    state_idx_[id] = next_idx[static_cast<std::size_t>(kind_[id])]++;
  }
  // Home the shared state: a caller-provided arena (workspace deployment)
  // or a private cache-line-aligned heap block (the in-process default).
  const StateLayout layout = compute_layout(net, options);
  const std::uint32_t n_toggles = layout.n_toggles, n_mcs = layout.n_mcs,
                      n_prisms = layout.n_prisms, n_slots = layout.n_slots;
  std::byte* base = nullptr;
  bool construct = true;
  if (arena.base == nullptr) {
    owned_ = ::operator new(layout.total == 0 ? 1 : layout.total,
                            std::align_val_t{kCacheLine});
    base = static_cast<std::byte*>(owned_);
  } else {
    CNET_CHECK_MSG(arena.size >= layout.total, "PlanArena smaller than state_footprint()");
    CNET_CHECK_MSG(reinterpret_cast<std::uintptr_t>(arena.base) % state_align() == 0,
                   "PlanArena base not state_align()-aligned");
    base = static_cast<std::byte*>(arena.base);
    construct = !arena.attach;
  }
  if (n_toggles != 0) toggles_ = reinterpret_cast<ToggleState*>(base + layout.toggle_off);
  if (n_mcs != 0) mcs_ = reinterpret_cast<McsState*>(base + layout.mcs_off);
  if (n_prisms != 0) {
    prism_counts_ = reinterpret_cast<PrismCounter*>(base + layout.prism_off);
    prism_slots_ =
        reinterpret_cast<Padded<std::atomic<std::uint64_t>>*>(base + layout.slots_off);
  }
  outputs_ = reinterpret_cast<Padded<std::atomic<std::uint64_t>>*>(base + layout.outputs_off);
  if (construct) {
    for (std::uint32_t i = 0; i < n_toggles; ++i) new (&toggles_[i]) ToggleState();
    for (std::uint32_t i = 0; i < n_mcs; ++i) new (&mcs_[i]) McsState();
    for (std::uint32_t i = 0; i < n_prisms; ++i) new (&prism_counts_[i]) PrismCounter();
    for (std::uint32_t i = 0; i < n_slots; ++i) {
      new (&prism_slots_[i]) Padded<std::atomic<std::uint64_t>>();
    }
    for (std::uint32_t i = 0; i < output_width_; ++i) {
      new (&outputs_[i]) Padded<std::atomic<std::uint64_t>>();
    }
  }

  // Pass 2: flatten the wiring into the packed successor table and fill the
  // (process-local) prism descriptors.
  prism_descs_.resize(n_prisms);
  std::uint32_t slot_cursor = 0;
  for (topo::NodeId id = 0; id < n_nodes; ++id) {
    const topo::Node& node = net.node(id);
    succ_offset_[id] = static_cast<std::uint32_t>(succ_.size());
    for (const topo::OutLink& link : node.out) {
      succ_.push_back(link.node == topo::kNoNode ? (kOutputBit | link.port) : link.node);
    }
    if (kind_[id] == Kind::kPrism) {
      PrismDesc& prism = prism_descs_[state_idx_[id]];
      prism.slot_offset = slot_cursor;
      prism.width = prism_width_for_layer(auto_width, node.layer);
      prism.spin = options.prism_spin;
      slot_cursor += prism.width;
    }
  }
  entry_.reserve(net.inputs().size());
  for (const topo::OutLink& link : net.inputs()) {
    entry_.push_back(link.node == topo::kNoNode ? (kOutputBit | link.port) : link.node);
  }

  // Pass 3: resolve pass-through chains out of the un-hooked hot path. A
  // pass node routes every token to its single successor, so collapsing the
  // chain is invisible to routing (only the per-node hook can tell).
  auto resolve = [&](std::uint32_t hop) {
    while ((hop & kOutputBit) == 0 && kind_[hop] == Kind::kPass) {
      hop = succ_[succ_offset_[hop]];
    }
    return hop;
  };
  succ_fast_.reserve(succ_.size());
  for (const std::uint32_t hop : succ_) succ_fast_.push_back(resolve(hop));
  entry_fast_.reserve(entry_.size());
  for (const std::uint32_t hop : entry_) entry_fast_.push_back(resolve(hop));

  // Wave order: a node's successors all sit in deeper layers, so sorting the
  // balancers by layer places every node after all of its predecessors.
  for (topo::NodeId id = 0; id < n_nodes; ++id) {
    if (kind_[id] != Kind::kPass) wave_node_.push_back(id);
  }
  std::stable_sort(wave_node_.begin(), wave_node_.end(), [&](std::uint32_t a, std::uint32_t b) {
    return net.node(a).layer < net.node(b).layer;
  });
  wave_pos_.assign(n_nodes, 0);
  for (std::uint32_t pos = 0; pos < wave_node_.size(); ++pos) wave_pos_[wave_node_[pos]] = pos;

  // Homogeneity profile: with only fan-out-2 toggles left on the fast path,
  // state_idx_ == a dense renumbering and the switch can be hoisted.
  homogeneous_toggle_fan2_ = true;
  for (topo::NodeId id = 0; id < n_nodes; ++id) {
    if (kind_[id] == Kind::kPass) continue;
    if (kind_[id] != Kind::kToggle || fan_out_[id] != 2) {
      homogeneous_toggle_fan2_ = false;
      break;
    }
  }

#if CNET_OBS
  if (options.metrics != nullptr) {
    metrics_ = options.metrics;
    metrics_->attach();
    bind_state_counts(net);
  }
#endif
}

RoutingPlan::~RoutingPlan() {
#if CNET_OBS
  if (metrics_ != nullptr) {  // keep the final reading while the state exists
    metrics_->balancer_visits.release();
    metrics_->prism_toggles.release();
  }
#endif
  // Every state element is trivially destructible (atomics and the MCS
  // tail pointer), so only the owned block itself needs releasing; an
  // arena-resident plan leaves the shared state to outlive it.
  if (owned_ != nullptr) ::operator delete(owned_, std::align_val_t{kCacheLine});
}

void RoutingPlan::bind_state_counts(const topo::Network& net) {
  // Each count is a sum of (node id, state atomic) terms. A toggle's or MCS
  // node's count is its visit count. A prism's toggle misses the tokens it
  // paired, so its visits are the tokens that left the outputs of the tree
  // below it, which needs a tree: every node under a prism entered only from
  // above (diffraction applies to 1-in/2-out nodes, which the builders place
  // only in counting trees).
  using Sources = std::vector<std::pair<std::uint32_t, const std::atomic<std::uint64_t>*>>;
  Sources visits, toggles;
  const auto n_nodes = static_cast<std::uint32_t>(kind_.size());
  for (std::uint32_t id = 0; id < n_nodes; ++id) {
    const std::uint32_t i = state_idx_[id];
    if (kind_[id] == Kind::kToggle) visits.emplace_back(id, &toggles_[i].count);
    if (kind_[id] == Kind::kMcs) visits.emplace_back(id, &mcs_[i].count);
    if (kind_[id] != Kind::kPrism) continue;
    toggles.emplace_back(id, &prism_counts_[i].count);
    for (std::vector<std::uint32_t> below{id}; !below.empty();) {
      const std::uint32_t node = below.back();
      below.pop_back();
      for (std::uint32_t p = 0; p < fan_out_[node]; ++p) {
        const std::uint32_t hop = succ_[succ_offset_[node] + p];
        if ((hop & kOutputBit) != 0) {
          visits.emplace_back(id, &*outputs_[hop & ~kOutputBit]);
          continue;
        }
        CNET_CHECK_MSG(net.node(hop).fan_in == 1,
                       "an obs sink needs every prism to head a tree (no other inputs below)");
        below.push_back(hop);
      }
    }
  }
  const auto bind = [n_nodes](obs::StateCounts& counts, Sources sources) {
    counts.bind(n_nodes, [sources = std::move(sources)](std::span<std::uint64_t> out) {
      for (const auto& [id, count] : sources) out[id] += count->load(std::memory_order_relaxed);
    });
  };
  bind(metrics_->balancer_visits, std::move(visits));
  bind(metrics_->prism_toggles, std::move(toggles));
}

// One state step for `tokens` tokens crossing `node` together. Returns the
// step's first count t0: its j-th token leaves on port (t0 + j) mod fan-out.
// A lone token at a prism tries to diffract and returns its port instead.
std::uint64_t RoutingPlan::cross(std::uint32_t node, std::uint64_t tokens,
                                 std::uint32_t thread_id) {
  const std::uint32_t i = state_idx_[node];
  switch (kind_[node]) {
    case Kind::kToggle:
      return toggles_[i].count.fetch_add(tokens, std::memory_order_acq_rel);
    case Kind::kMcs: {
      McsLock::Guard guard(mcs_[i].lock);
      const std::uint64_t t = mcs_[i].count.load(std::memory_order_relaxed);
      mcs_[i].count.store(t + tokens, std::memory_order_relaxed);
      return t;
    }
    case Kind::kPrism:
      // A sub-batch is already combined, so it takes the fall-back toggle.
      if (tokens == 1) return traverse_prism(i, thread_id);
      return prism_counts_[i].count.fetch_add(tokens, std::memory_order_acq_rel);
    case Kind::kPass:
      break;
  }
  CNET_CHECK_MSG(false, "pass-through nodes take no state step");
}

std::uint32_t RoutingPlan::traverse(std::uint32_t node, std::uint32_t thread_id) {
  if (kind_[node] == Kind::kPass) return 0;
  return static_cast<std::uint32_t>(cross(node, 1, thread_id) % fan_out_[node]);
}

std::uint32_t RoutingPlan::traverse_prism(std::uint32_t prism_idx, std::uint32_t thread_id) {
  const PrismDesc& state = prism_descs_[prism_idx];
  // Prism protocol: collision-race losses retry; an expired camping window
  // falls through to the toggle, whose count the sink reads; pairings are
  // not in the state, so they are recorded here.
#if CNET_OBS
  const auto count_pair = [&] {
    if (metrics_ != nullptr) metrics_->prism_pairs.add(thread_id);
  };
#else
  const auto count_pair = [] {};
#endif
  const std::uint64_t my_id = thread_id + 1;
  Rng& rng = prism_rng();
  for (int attempt = 0; attempt < 1;) {
    std::atomic<std::uint64_t>& slot =
        *prism_slots_[state.slot_offset + rng.below(state.width)];
    std::uint64_t seen = slot.load(std::memory_order_acquire);
    if (seen == 0) {
      std::uint64_t expected = 0;
      if (!slot.compare_exchange_strong(expected, my_id, std::memory_order_acq_rel)) continue;
      for (std::uint32_t i = 0; i < state.spin; ++i) {
        if (slot.load(std::memory_order_acquire) == (my_id | kPaired)) {
          slot.store(0, std::memory_order_release);
          count_pair();
          return 0;
        }
        cpu_relax();
      }
      expected = my_id;
      if (!slot.compare_exchange_strong(expected, 0, std::memory_order_acq_rel)) {
        // A partner paired concurrently with our retraction.
        SpinWaiter waiter;
        while (slot.load(std::memory_order_acquire) != (my_id | kPaired)) waiter.wait();
        slot.store(0, std::memory_order_release);
        count_pair();
        return 0;
      }
      ++attempt;  // camping window expired
      continue;
    }
    if ((seen & kPaired) == 0) {
      if (slot.compare_exchange_strong(seen, seen | kPaired, std::memory_order_acq_rel)) {
        count_pair();
        return 1;
      }
    }
  }

  const std::uint64_t t =
      prism_counts_[prism_idx].count.fetch_add(1, std::memory_order_acq_rel);
  return static_cast<std::uint32_t>(t & 1);
}

std::uint32_t RoutingPlan::route(std::uint32_t thread_id, std::uint32_t input,
                                 NodeHook after_node, void* ctx) {
#if CNET_OBS
  // With a sink, a token pays one RMW (the token clock) and, unless sampled,
  // runs the sink-less loops below. The compile-time guard removes even the
  // branch from a CNET_OBS=0 build.
  if (metrics_ != nullptr && metrics_->should_sample(thread_id)) [[unlikely]] {
    return route_timed(thread_id, input, after_node, ctx);
  }
#endif
  if (after_node == nullptr) {
    std::uint32_t hop = entry_fast_[input];
    if (homogeneous_toggle_fan2_) {
      // Hoisted loop: every node is a fetch-add toggle with two outputs.
      while ((hop & kOutputBit) == 0) {
        const std::uint64_t t =
            toggles_[state_idx_[hop]].count.fetch_add(1, std::memory_order_acq_rel);
        hop = succ_fast_[succ_offset_[hop] + (t & 1)];
      }
      return hop & ~kOutputBit;
    }
    while ((hop & kOutputBit) == 0) {
      const std::uint32_t port = traverse(hop, thread_id);
      hop = succ_fast_[succ_offset_[hop] + port];
    }
    return hop & ~kOutputBit;
  }
  std::uint32_t hop = entry_[input];
  while ((hop & kOutputBit) == 0) {
    const std::uint32_t port = traverse(hop, thread_id);
    after_node(ctx, hop, port);
    hop = succ_[succ_offset_[hop] + port];
  }
  return hop & ~kOutputBit;
}

// The timed twin of route() for sampled tokens: same routing decisions, plus
// per-hop latencies feeding the histograms, the c2/c1 estimator, and the
// trace ring. Pass-through padding nodes are not balancers and are never
// timed (they are compiled out of the un-hooked tables anyway).
std::uint32_t RoutingPlan::route_timed(std::uint32_t thread_id, std::uint32_t input,
                                       NodeHook after_node, void* ctx) {
  obs::CounterMetrics& m = *metrics_;
  m.sampled.add(thread_id);
  const std::uint64_t t_start = obs::now_ns();
  std::uint64_t t_last = t_start;
  // Hooked tokens must keep visiting pass-through nodes (the run layer's
  // W-wait fires per hook invocation), so pick the same tables route()
  // would.
  const std::uint32_t* succ = after_node != nullptr ? succ_.data() : succ_fast_.data();
  std::uint32_t hop = after_node != nullptr ? entry_[input] : entry_fast_[input];
  while ((hop & kOutputBit) == 0) {
    const std::uint32_t port = traverse(hop, thread_id);
    if (kind_[hop] != Kind::kPass) {
      const std::uint64_t now = obs::now_ns();
      m.hop_latency_ns.record(thread_id, now - t_last);
      m.trace.record(thread_id, {t_last, now - t_last, thread_id, hop, obs::TracePhase::kHop});
      t_last = now;
    }
    if (after_node != nullptr) after_node(ctx, hop, port);
    hop = succ[succ_offset_[hop] + port];
  }
  const std::uint64_t now = obs::now_ns();
  m.token_latency_ns.record(thread_id, now - t_start);
  m.trace.record(thread_id, {t_start, now - t_start, thread_id, input, obs::TracePhase::kOp});
  return hop & ~kOutputBit;
}

std::uint64_t RoutingPlan::next_hooked(std::uint32_t thread_id, std::uint32_t input,
                                       NodeHook after_node, void* ctx) {
  CNET_CHECK(input < input_width_);
  const std::uint32_t port = route(thread_id, input, after_node, ctx);
  const std::uint64_t nth = outputs_[port]->fetch_add(1, std::memory_order_acq_rel);
  return port + nth * output_width_;
}

void RoutingPlan::next_batch(std::uint32_t thread_id, std::uint32_t input,
                             std::span<std::uint64_t> out) {
  CNET_CHECK(input < input_width_);
  if (out.empty()) return;
#if CNET_OBS
  if (metrics_ != nullptr) [[unlikely]] metrics_->batch_calls.add(thread_id);
#endif
  if (out.size() == 1) {  // a wave of one token is its walk
    out[0] = next(thread_id, input);
    return;
  }
  const std::uint32_t w = output_width_;
  const std::size_t n_nodes = wave_node_.size();
  const std::size_t n_positions = n_nodes + w;
  WaveScratch& wave = wave_scratch(n_positions);
  std::uint64_t* const pending = wave.pending.data();
  std::uint64_t* const live = wave.live.data();
  const auto arrive = [&](std::uint32_t hop, std::uint64_t tokens) {
    const std::size_t pos =
        (hop & kOutputBit) != 0 ? n_nodes + (hop & ~kOutputBit) : wave_pos_[hop];
    pending[pos] += tokens;
    live[pos / 64] |= std::uint64_t{1} << (pos % 64);
  };
  std::uint64_t riders = out.size();
#if CNET_OBS
  if (metrics_ != nullptr) [[unlikely]] {
    // The batch's sampled tokens walk alone, timed; the rest ride the wave.
    for (std::uint64_t s = metrics_->sample_batch(thread_id, riders); s != 0; --s, --riders) {
      arrive(kOutputBit | route_timed(thread_id, input, nullptr, nullptr), 1);
    }
  }
#endif
  if (riders != 0) arrive(entry_fast_[input], riders);

  // Visit the live positions in ascending order. Every sub-batch bound for
  // a node has arrived by the time it is visited, since its predecessors
  // sit before it.
  std::size_t filled = 0;
  for (std::size_t word = 0; word * 64 < n_positions;) {
    if (live[word] == 0) {
      ++word;
      continue;
    }
    const std::size_t pos = word * 64 + static_cast<std::size_t>(std::countr_zero(live[word]));
    live[word] &= live[word] - 1;
    const std::uint64_t c = std::exchange(pending[pos], 0);
    if (pos >= n_nodes) {  // an exit port claims one block for its c tokens
      const auto port = static_cast<std::uint32_t>(pos - n_nodes);
      const std::uint64_t nth = outputs_[port]->fetch_add(c, std::memory_order_acq_rel);
      for (std::uint64_t i = 0; i < c; ++i) out[filled++] = port + (nth + i) * w;
      continue;
    }
    // Split by the t mod fan-out rule: every port gets c / fan tokens, and
    // the c % fan ports from t0's onwards one more.
    const std::uint32_t node = wave_node_[pos];
    const std::uint32_t fan = fan_out_[node];
    const std::uint32_t* succ = &succ_fast_[succ_offset_[node]];
    const std::uint64_t t0 = cross(node, c, thread_id);
    if (fan == 2) {  // the common case, without the divisions below
      const auto first = static_cast<std::uint32_t>(t0 & 1);
      arrive(succ[first], (c + 1) / 2);
      if (c > 1) arrive(succ[first ^ 1], c / 2);
      continue;
    }
    const auto first = static_cast<std::uint32_t>(t0 % fan);
    for (std::uint32_t d = 0; d < fan && d < c; ++d) {
      const std::uint32_t port = first + d < fan ? first + d : first + d - fan;
      arrive(succ[port], c / fan + (d < c % fan ? 1 : 0));
    }
  }
  // Ascending, as k next() calls return them single-threaded on a counting
  // network.
  std::sort(out.begin(), out.end());
}

std::uint64_t RoutingPlan::output_count(std::uint32_t port) const {
  CNET_CHECK(port < output_width_);
  return outputs_[port]->load(std::memory_order_acquire);
}

std::uint64_t RoutingPlan::issued() const {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < output_width_; ++i)
    total += outputs_[i]->load(std::memory_order_acquire);
  return total;
}

}  // namespace cnet::rt
