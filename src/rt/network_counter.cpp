#include "rt/network_counter.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <new>
#include <utility>

#include "obs/backend_metrics.h"
#include "util/assert.h"

namespace cnet::rt {
namespace {

/// A thread's wave scratch: a pending token count per wave position and a
/// bitset of the positions that hold one. Every wave leaves both all-zero,
/// so one scratch serves every counter the thread drives.
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

}  // namespace

NetworkCounter::Kind NetworkCounter::classify(const topo::Node& node) {
  return node.is_pass_through() ? Kind::kPass : Kind::kToggle;
}

NetworkCounter::StateLayout NetworkCounter::compute_layout(const topo::Network& net) {
  StateLayout layout;
  for (const topo::Node& node : net.nodes()) {
    layout.n_toggles += classify(node) == Kind::kToggle ? 1 : 0;
  }
  // Both element types are alignas(kCacheLine) with a cache-line-multiple
  // size, so packing the sections back to back keeps them both aligned.
  layout.outputs_off = layout.n_toggles * sizeof(ToggleState);
  layout.total =
      layout.outputs_off + net.output_width() * sizeof(Padded<std::atomic<std::uint64_t>>);
  return layout;
}

std::size_t NetworkCounter::state_footprint(const topo::Network& net) {
  return compute_layout(net).total;
}

NetworkCounter::NetworkCounter(topo::Network net, const CounterOptions& options,
                               const PlanArena& arena)
    : input_width_(net.input_width()),
      output_width_(net.output_width()),
      max_threads_(options.max_threads),
      metrics_(options.metrics),
      net_(std::move(net)) {
  const auto n_nodes = static_cast<std::uint32_t>(net_.node_count());
  kind_.resize(n_nodes);
  fan_out_.resize(n_nodes);
  state_idx_.resize(n_nodes);
  succ_offset_.resize(n_nodes);

  // Pass 1: classify nodes and assign each toggle a dense state slot (the
  // same classification compute_layout() sizes the sections with).
  std::uint32_t next_toggle = 0;
  for (topo::NodeId id = 0; id < n_nodes; ++id) {
    fan_out_[id] = net_.node(id).fan_out;
    kind_[id] = classify(net_.node(id));
    if (kind_[id] == Kind::kToggle) state_idx_[id] = next_toggle++;
  }
  // Home the shared state: a caller-provided arena (workspace deployment)
  // or a private cache-line-aligned heap block (the in-process default).
  const StateLayout layout = compute_layout(net_);
  const std::uint32_t n_toggles = layout.n_toggles;
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
  if (n_toggles != 0) toggles_ = reinterpret_cast<ToggleState*>(base);
  outputs_ = reinterpret_cast<Padded<std::atomic<std::uint64_t>>*>(base + layout.outputs_off);
  if (construct) {
    for (std::uint32_t i = 0; i < n_toggles; ++i) new (&toggles_[i]) ToggleState();
    for (std::uint32_t i = 0; i < output_width_; ++i) {
      new (&outputs_[i]) Padded<std::atomic<std::uint64_t>>();
    }
  }

  // Pass 2: flatten the wiring into the packed successor table.
  for (topo::NodeId id = 0; id < n_nodes; ++id) {
    succ_offset_[id] = static_cast<std::uint32_t>(succ_.size());
    for (const topo::OutLink& link : net_.node(id).out) {
      succ_.push_back(link.node == topo::kNoNode ? (kOutputBit | link.port) : link.node);
    }
  }
  entry_.reserve(net_.inputs().size());
  for (const topo::OutLink& link : net_.inputs()) {
    entry_.push_back(link.node == topo::kNoNode ? (kOutputBit | link.port) : link.node);
  }

  // Pass 3: resolve pass-through chains out of both tables, so no walk
  // ever reaches a pass node. A pass node routes every token to its single
  // successor, so collapsing the chain is invisible to routing; on real
  // threads a pass hop costs no time either, so a padded network runs as its
  // base does.
  const auto resolve = [&](std::uint32_t hop) {
    while ((hop & kOutputBit) == 0 && kind_[hop] == Kind::kPass) {
      hop = succ_[succ_offset_[hop]];
    }
    return hop;
  };
  for (std::uint32_t& hop : succ_) hop = resolve(hop);
  for (std::uint32_t& hop : entry_) hop = resolve(hop);

  // Wave order: a node's successors all sit in deeper layers, so sorting the
  // balancers by layer places every node after all of its predecessors.
  for (topo::NodeId id = 0; id < n_nodes; ++id) {
    if (kind_[id] != Kind::kPass) wave_node_.push_back(id);
  }
  std::stable_sort(wave_node_.begin(), wave_node_.end(), [&](std::uint32_t a, std::uint32_t b) {
    return net_.node(a).layer < net_.node(b).layer;
  });
  wave_pos_.assign(n_nodes, 0);
  for (std::uint32_t pos = 0; pos < wave_node_.size(); ++pos) wave_pos_[wave_node_[pos]] = pos;

  // Homogeneity profile: with only fan-out-2 toggles left in the tables,
  // `% fan_out` reduces to `& 1`.
  homogeneous_toggle_fan2_ = true;
  for (topo::NodeId id = 0; id < n_nodes; ++id) {
    if (kind_[id] == Kind::kToggle && fan_out_[id] != 2) {
      homogeneous_toggle_fan2_ = false;
      break;
    }
  }

  if (metrics_ != nullptr) {
    metrics_->attach();
    bind_state_counts();
    // The guard watches the obs hop-latency estimator, so it only exists
    // when there is a sink to watch.
    if (options.degrade != DegradePolicy::kOff) {
      guard_ = std::make_unique<DegradeGuard>(options.degrade, metrics_);
    }
  }
}

NetworkCounter::~NetworkCounter() {
  // Keep the final reading while the state exists.
  if (metrics_ != nullptr) metrics_->balancer_visits.release();
  // Every state element is a trivially destructible atomic, so only the
  // owned block itself needs releasing; an arena-resident counter leaves the
  // shared state to outlive it.
  if (owned_ != nullptr) ::operator delete(owned_, std::align_val_t{kCacheLine});
}

void NetworkCounter::bind_state_counts() {
  // A toggle's count is its visit count.
  std::vector<std::pair<std::uint32_t, const std::atomic<std::uint64_t>*>> visits;
  const auto n_nodes = static_cast<std::uint32_t>(kind_.size());
  for (std::uint32_t id = 0; id < n_nodes; ++id) {
    if (kind_[id] == Kind::kToggle) visits.emplace_back(id, &toggles_[state_idx_[id]].count);
  }
  metrics_->balancer_visits.bind(
      n_nodes, [visits = std::move(visits)](std::span<std::uint64_t> out) {
        for (const auto& [id, count] : visits) out[id] += count->load(std::memory_order_relaxed);
      });
}

// One state step for `tokens` tokens crossing `node` together. Returns the
// step's first count t0: its j-th token leaves on port (t0 + j) mod fan-out.
// The tables resolve pass nodes away, so every node a walk meets is a toggle.
std::uint64_t NetworkCounter::cross(std::uint32_t node, std::uint64_t tokens) {
  return toggles_[state_idx_[node]].count.fetch_add(tokens, std::memory_order_acq_rel);
}

std::uint32_t NetworkCounter::traverse(std::uint32_t node) {
  return static_cast<std::uint32_t>(cross(node, 1) % fan_out_[node]);
}

std::uint32_t NetworkCounter::route(std::uint32_t thread_id, std::uint32_t input,
                                    NodeHook after_node, void* ctx) {
  // With a sink, a token pays one RMW (the token clock) and, unless sampled,
  // runs the sink-less loops below; without one, it pays a null test.
  if (metrics_ != nullptr && metrics_->should_sample(thread_id)) [[unlikely]] {
    return route_timed(thread_id, input, after_node, ctx);
  }
  std::uint32_t hop = entry_[input];
  if (after_node == nullptr && homogeneous_toggle_fan2_) {
    // Hoisted loop: every toggle has two outputs.
    while ((hop & kOutputBit) == 0) {
      const std::uint64_t t =
          toggles_[state_idx_[hop]].count.fetch_add(1, std::memory_order_acq_rel);
      hop = succ_[succ_offset_[hop] + (t & 1)];
    }
    return hop & ~kOutputBit;
  }
  while ((hop & kOutputBit) == 0) {
    const std::uint32_t port = traverse(hop);
    if (after_node != nullptr) after_node(ctx, hop, port);
    hop = succ_[succ_offset_[hop] + port];
  }
  return hop & ~kOutputBit;
}

// The timed twin of route() for sampled tokens: same routing decisions, plus
// per-hop latencies feeding the histograms, the c2/c1 estimator, and the
// trace ring, and then one tick of the guard's sample clock.
std::uint32_t NetworkCounter::route_timed(std::uint32_t thread_id, std::uint32_t input,
                                          NodeHook after_node, void* ctx) {
  obs::CounterMetrics& m = *metrics_;
  m.sampled.add(thread_id);
  const std::uint64_t t_start = obs::now_ns();
  std::uint64_t t_last = t_start;
  std::uint32_t hop = entry_[input];
  while ((hop & kOutputBit) == 0) {
    const std::uint32_t port = traverse(hop);
    const std::uint64_t now = obs::now_ns();
    m.hop_latency_ns.record(thread_id, now - t_last);
    m.trace.record(thread_id, {t_last, now - t_last, thread_id, hop, obs::TracePhase::kHop});
    t_last = now;
    if (after_node != nullptr) after_node(ctx, hop, port);
    hop = succ_[succ_offset_[hop] + port];
  }
  const std::uint64_t now = obs::now_ns();
  m.token_latency_ns.record(thread_id, now - t_start);
  m.trace.record(thread_id, {t_start, now - t_start, thread_id, input, obs::TracePhase::kOp});
  if (guard_) guard_->on_sample();
  return hop & ~kOutputBit;
}

std::uint64_t NetworkCounter::walk(std::uint32_t thread_id, std::uint32_t input,
                                   NodeHook after_node, void* ctx) {
  const std::uint32_t port = route(thread_id, input, after_node, ctx);
  const std::uint64_t nth = outputs_[port]->fetch_add(1, std::memory_order_acq_rel);
  return port + nth * output_width_;
}

std::uint64_t NetworkCounter::next_hooked(std::uint32_t thread_id, std::uint32_t input,
                                          NodeHook after_node, void* ctx) {
  CNET_CHECK(input < input_width_);
  CNET_CHECK(thread_id < max_threads_);
  return walk(thread_id, input, after_node, ctx);
}

void NetworkCounter::next_batch(std::uint32_t thread_id, std::uint32_t input,
                                std::span<std::uint64_t> out) {
  CNET_CHECK(input < input_width_);
  CNET_CHECK(thread_id < max_threads_);
  if (out.empty()) return;
  if (metrics_ != nullptr) [[unlikely]] metrics_->batch_calls.add(thread_id);
  if (out.size() == 1) {  // a wave of one token is its walk
    out[0] = walk(thread_id, input, nullptr, nullptr);
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
  if (metrics_ != nullptr) [[unlikely]] {
    // The batch's sampled tokens walk alone, timed; the rest ride the wave.
    for (std::uint64_t s = metrics_->sample_batch(thread_id, riders); s != 0; --s, --riders) {
      arrive(kOutputBit | route_timed(thread_id, input, nullptr, nullptr), 1);
    }
  }
  if (riders != 0) arrive(entry_[input], riders);

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
    const std::uint32_t* succ = &succ_[succ_offset_[node]];
    const std::uint64_t t0 = cross(node, c);
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

std::uint64_t NetworkCounter::output_count(std::uint32_t port) const {
  CNET_CHECK(port < output_width_);
  return outputs_[port]->load(std::memory_order_acquire);
}

std::uint64_t NetworkCounter::issued() const {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < output_width_; ++i)
    total += outputs_[i]->load(std::memory_order_acquire);
  return total;
}

}  // namespace cnet::rt
