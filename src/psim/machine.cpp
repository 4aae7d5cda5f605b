#include "psim/machine.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "fault/injector.h"
#include "obs/backend_metrics.h"
#include "util/assert.h"

namespace cnet::psim {
namespace {

/// One simulated machine run; lives for the duration of run_workload.
class Machine {
 public:
  Machine(const topo::Network& net, const MachineParams& params)
      : net_(&net), params_(params),
        n_procs_(params.script != nullptr
                     ? static_cast<std::uint32_t>(params.script->procs.size())
                     : params.processors),
        memory_(engine_, params.mem) {
    CNET_CHECK(n_procs_ >= 1);

    balancers_.reserve(net.node_count());
    for (topo::NodeId id = 0; id < net.node_count(); ++id) {
      const topo::Node& node = net.node(id);
      if (params.use_diffraction && node.fan_in == 1 && node.fan_out == 2) {
        PrismParams prism = params.prism;
        if (prism.width == 0) {
          // Multi-prism scaling of [20]: the root prism is sized to the
          // machine and each level down halves it.
          const std::uint32_t root = std::min(8u, std::max(2u, n_procs_ / 8));
          prism.width = std::max(2u, root >> (node.layer - 1));
        }
        balancers_.push_back(std::make_unique<DiffractingBalancer>(
            engine_, memory_, n_procs_, prism));
      } else {
        balancers_.push_back(std::make_unique<McsToggleBalancer>(
            engine_, memory_, n_procs_, node.fan_out));
      }
    }
    counters_.reserve(net.output_width());
    for (std::uint32_t i = 0; i < net.output_width(); ++i) counters_.push_back(memory_.alloc(0));

    // Scripted runs carry their own stall placements; the F/W delayed set
    // does not apply (delayed_fraction is documented as ignored).
    const auto delayed =
        params.script != nullptr
            ? 0u
            : static_cast<std::uint32_t>(std::lround(params.delayed_fraction *
                                                     static_cast<double>(n_procs_)));
    Rng seeder(params.seed);
    for (std::uint32_t p = 0; p < n_procs_; ++p) {
      rngs_.emplace_back(seeder.split());
      delayed_.push_back(p < delayed);
    }
    // The delayed set is a uniform random subset of the processors (the
    // paper does not pin F to particular processors); with a deterministic
    // assignment the slow tokens would be spread evenly over the input
    // wires, creating an artificially symmetric starvation pattern.
    for (std::uint32_t p = n_procs_; p > 1; --p) {
      const auto j = static_cast<std::uint32_t>(seeder.below(p));
      const bool tmp = delayed_[p - 1];
      delayed_[p - 1] = delayed_[j];
      delayed_[j] = tmp;
    }
  }

  MachineResult run() {
    procs_.reserve(n_procs_);
    for (std::uint32_t p = 0; p < n_procs_; ++p) procs_.push_back(processor(p));
    for (auto& proc : procs_) proc.start();
    engine_.run();
    for (const auto& proc : procs_) CNET_CHECK_MSG(proc.done(), "processor parked mid-run");

    MachineResult result;
    result.history = std::move(history_);
    result.op_hops = std::move(op_hops_);
    result.analysis = lin::check(result.history);
    for (const lin::Operation& op : result.history) {
      result.op_latency.add(op.end - op.start);
    }
    Summary tog;
    std::vector<Summary> layer_tog(net_->depth());
    result.layers.resize(net_->depth());
    for (topo::NodeId id = 0; id < net_->node_count(); ++id) {
      const BalancerStats& stats = balancers_[id]->stats();
      const std::uint32_t layer = net_->node(id).layer - 1;
      tog.merge(stats.tog_wait);
      layer_tog[layer].merge(stats.tog_wait);
      result.layers[layer].toggles += stats.toggles;
      result.layers[layer].diffractions += stats.diffractions;
      result.toggles += stats.toggles;
      result.diffractions += stats.diffractions;
    }
    for (std::uint32_t l = 0; l < net_->depth(); ++l)
      result.layers[l].avg_tog = layer_tog[l].mean();
    result.avg_tog = tog.mean();
    result.avg_c2_over_c1 =
        tog.count() == 0
            ? 0.0
            : (tog.mean() + static_cast<double>(params_.wait_cycles)) / tog.mean();
    result.makespan = engine_.now();
    result.memory_accesses = memory_.accesses();
    result.events = engine_.events_processed();
    if (params_.metrics != nullptr) {
      obs::PsimMetrics& m = *params_.metrics;
      m.ops.add(0, result.history.size());
      m.toggles.add(0, result.toggles);
      m.diffractions.add(0, result.diffractions);
      m.events.add(0, result.events);
      for (const lin::Operation& op : result.history) {
        m.op_latency_cycles.record(op.actor, static_cast<std::uint64_t>(op.end - op.start));
      }
    }
    return result;
  }

 private:
  Coro<void> processor(std::uint32_t p) {
    Rng& rng = rngs_[p];
    const std::vector<ScriptedOp>* lane =
        params_.script != nullptr ? &params_.script->procs[p] : nullptr;
    std::size_t next_op = 0;
    // Paper semantics: "the execution is stopped when 5000 operations were
    // performed" — processors issue continuously until the *completed* count
    // reaches the target, so fast processors keep traversing while delayed
    // tokens are still in flight (slightly overshooting the target). A
    // scripted lane instead issues exactly its own op list.
    while (lane != nullptr ? next_op < lane->size() : completed_ < params_.total_ops) {
      const ScriptedOp* op = lane != nullptr ? &(*lane)[next_op++] : nullptr;
      // The adversary's invocation control: the processor sleeps before the
      // op begins, so the start timestamp (and every precedence edge into
      // this op) moves with it.
      if (op != nullptr && op->defer != 0) co_await engine_.sleep(op->defer);
      const auto start = static_cast<double>(engine_.now());
      // Processor p enters at p mod w, not at the live executors'
      // Network::issuer_input: simulated time shares no cache lines, and the
      // Figure 5/6 cells in results/fig5.txt and results/fig6.txt are
      // frozen byte for byte under this rule.
      const std::uint32_t wire = (op != nullptr ? op->input : p) % net_->input_width();
      topo::OutLink at = net_->inputs()[wire];
      std::uint32_t hops = 0;
      std::vector<HopRecord> hop_records;
      while (at.node != topo::kNoNode) {
        const topo::NodeId node = at.node;
        if (params_.fault != nullptr) {
          // A late delivery: the token reaches this balancer's queue late.
          const Cycle late = params_.fault->delivery_delay_ns(node);
          if (late != 0) co_await engine_.sleep(late);
        }
        const Cycle hop_start = engine_.now();
        const std::uint32_t port = co_await balancers_[node]->traverse(p, rng);
        ++hops;
        if (params_.record_hops) hop_records.push_back(HopRecord{node, port, hop_start});
        // Stall debits land after the balancer released the token and
        // before it moves on — at the final node this window sits between
        // the last balancer and the output-counter access, exactly where
        // the §4 adversary parks a token.
        if (op != nullptr && hops <= op->stalls.size() && op->stalls[hops - 1] != 0) {
          co_await engine_.sleep(op->stalls[hops - 1]);
        }
        if (params_.fault != nullptr) {
          const std::uint64_t stall = params_.fault->stall_ns(p, net_->node(node).layer);
          if (stall != 0) co_await engine_.sleep(stall);
        }
        const Cycle wait = op != nullptr ? 0 : post_node_wait(p, rng);
        if (wait != 0) co_await engine_.sleep(wait);
        co_await engine_.sleep(params_.hop_cycles);
        // Hop latency deliberately includes the post-node wait and the hop
        // cycles: the p90/p10 ratio of this histogram is the estimator's
        // stand-in for the paper's (Tog + W) / Tog.
        if (params_.metrics != nullptr) {
          params_.metrics->hop_latency_cycles.record(p, engine_.now() - hop_start);
        }
        at = net_->node(node).out[port];
      }
      const std::uint64_t nth = co_await memory_.fetch_add(counters_[at.port], 1);
      const std::uint64_t value = at.port + nth * net_->output_width();
      ++completed_;
      const auto end = static_cast<double>(engine_.now());
      history_.push_back(lin::Operation{start, end, value, p});
      if (params_.record_hops) op_hops_.push_back(std::move(hop_records));
    }
  }

  Cycle post_node_wait(std::uint32_t p, Rng& rng) {
    if (params_.random_wait) {
      return params_.wait_cycles == 0 ? 0 : rng.between(0, params_.wait_cycles);
    }
    return delayed_[p] ? params_.wait_cycles : 0;
  }

  const topo::Network* net_;
  MachineParams params_;
  std::uint32_t n_procs_;  ///< script lanes when scripted, else params.processors
  Engine engine_;
  Memory memory_;
  std::vector<std::unique_ptr<Balancer>> balancers_;
  std::vector<std::uint32_t> counters_;
  std::vector<Rng> rngs_;
  std::vector<bool> delayed_;
  std::vector<Coro<void>> procs_;
  std::uint64_t completed_ = 0;
  lin::History history_;
  std::vector<std::vector<HopRecord>> op_hops_;
};

}  // namespace

MachineResult run_workload(const topo::Network& net, const MachineParams& params) {
  Machine machine(net, params);
  return machine.run();
}

}  // namespace cnet::psim
