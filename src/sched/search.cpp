#include "sched/search.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/assert.h"

namespace cnet::sched {
namespace {

/// The base (no-stall) run plus the lookups the pruning analysis needs.
struct BaseRun {
  lin::History history;
  std::vector<std::vector<psim::HopRecord>> hops;  ///< parallel to history
  std::uint64_t magnitude = 0;
  double fraction = 0.0;
  /// (proc << 32 | op-index-in-lane) -> history index. Lanes are
  /// sequential, so an actor's completion order is its program order.
  std::unordered_map<std::uint64_t, std::size_t> op_at;
};

std::uint64_t lane_key(std::uint32_t proc, std::uint32_t op) {
  return (static_cast<std::uint64_t>(proc) << 32) | op;
}

/// Resolves a placement's delay length: an explicit cycles wins; otherwise
/// stalls get the full stall_cycles and invocation defers half of it, so a
/// park always outlasts a defer plus the deferred token's traversal.
psim::Cycle placement_cycles(const Placement& pl, const SearchOptions& options) {
  if (pl.cycles != 0) return pl.cycles;
  return pl.hop == 0 ? options.stall_cycles / 2 : options.stall_cycles;
}

psim::MachineResult run_schedule(const topo::Network& net, const SearchOptions& options,
                                 const psim::Script& script, bool record_hops) {
  psim::MachineParams params;
  params.script = &script;
  params.hop_cycles = options.hop_cycles;
  params.seed = options.seed;
  params.record_hops = record_hops;
  return psim::run_workload(net, params);
}

BaseRun run_base(const topo::Network& net, const SearchOptions& options) {
  const psim::Script script = make_schedule(net, options, {});
  psim::MachineResult result = run_schedule(net, options, script, true);
  BaseRun base;
  base.magnitude = lin::inversion_magnitude(result.history);
  base.fraction = result.analysis.fraction();
  base.history = std::move(result.history);
  base.hops = std::move(result.op_hops);
  std::unordered_map<std::uint32_t, std::uint32_t> next_op;
  for (std::size_t i = 0; i < base.history.size(); ++i) {
    const std::uint32_t proc = base.history[i].actor;
    base.op_at.emplace(lane_key(proc, next_op[proc]++), i);
  }
  return base;
}

/// True when the placement's stall provably commutes with the whole base
/// schedule (see the header comment): no other token's base-run arrival
/// lands on one of the stalled token's remaining nodes — nor on its output
/// counter — inside the stall window, so the delayed events reorder with
/// nothing and the schedule's magnitude is bounded by the base run's.
bool commutes_with_base(const BaseRun& base, const topo::Network& net, const Placement& pl,
                        psim::Cycle stall) {
  const auto it = base.op_at.find(lane_key(pl.proc, pl.op));
  if (it == base.op_at.end()) return false;
  const std::size_t idx = it->second;
  const std::vector<psim::HopRecord>& path = base.hops[idx];
  if (pl.hop > path.size()) return false;

  // An invocation defer slides the op's start, which can only *add*
  // precedence edges into it: any other op completing inside the window
  // after the base start would newly precede the deferred op, so the base
  // run's magnitude no longer bounds the schedule's.
  if (pl.hop == 0) {
    const double start = base.history[idx].start;
    for (std::size_t j = 0; j < base.history.size(); ++j) {
      if (j == idx) continue;
      const double other_end = base.history[j].end;
      if (other_end > start && other_end <= start + static_cast<double>(stall)) return false;
    }
  }

  // Delayed node arrivals: everything after the stalled hop (every hop,
  // for a defer).
  for (std::size_t h = pl.hop; h < path.size(); ++h) {
    const psim::HopRecord& mine = path[h];
    for (std::size_t j = 0; j < base.hops.size(); ++j) {
      if (j == idx) continue;
      for (const psim::HopRecord& other : base.hops[j]) {
        if (other.node == mine.node && other.at > mine.at && other.at <= mine.at + stall) {
          return false;
        }
      }
    }
  }
  // The delayed counter access: another op on the same output port
  // completing inside the window would change the fetch_add order.
  const std::uint64_t port = base.history[idx].value % net.output_width();
  const double end = base.history[idx].end;
  for (std::size_t j = 0; j < base.history.size(); ++j) {
    if (j == idx) continue;
    const lin::Operation& other = base.history[j];
    if (other.value % net.output_width() != port) continue;
    if (other.end > end && other.end <= end + static_cast<double>(stall)) return false;
  }
  return true;
}

}  // namespace

psim::Script make_schedule(const topo::Network& net, const SearchOptions& options,
                           const std::vector<Placement>& placements) {
  CNET_CHECK(options.procs >= 1);
  CNET_CHECK(options.ops_per_proc >= 1);
  const std::uint32_t depth = net.depth();
  psim::Script script;
  script.procs.assign(options.procs, {});
  for (std::uint32_t p = 0; p < options.procs; ++p) {
    script.procs[p].resize(options.ops_per_proc);
    // psim's rule, p mod w (see psim/machine.cpp): a script runs in
    // simulated time, where issuer placement has no cache lines to spare.
    for (psim::ScriptedOp& op : script.procs[p]) op.input = p % net.input_width();
  }
  for (const Placement& pl : placements) {
    CNET_CHECK_MSG(pl.proc < options.procs, "placement proc out of range");
    CNET_CHECK_MSG(pl.op < options.ops_per_proc, "placement op out of range");
    CNET_CHECK_MSG(pl.hop <= depth, "placement hop out of range");
    psim::ScriptedOp& op = script.procs[pl.proc][pl.op];
    if (pl.hop == 0) {
      op.defer = placement_cycles(pl, options);
      continue;
    }
    if (op.stalls.size() < depth) op.stalls.resize(depth, 0);
    op.stalls[pl.hop - 1] = placement_cycles(pl, options);
  }
  return script;
}

lin::CheckResult evaluate_schedule(const topo::Network& net, const SearchOptions& options,
                                   const std::vector<Placement>& placements) {
  const psim::Script script = make_schedule(net, options, placements);
  return run_schedule(net, options, script, false).analysis;
}

std::vector<Placement> section4_placements(const topo::Network& net,
                                           const SearchOptions& options) {
  const std::uint32_t width = net.output_width();
  CNET_CHECK_MSG(options.procs == width + 1,
                 "section4_placements wants one lane per wire plus the late token");
  CNET_CHECK_MSG(options.ops_per_proc == 1,
                 "section4_placements wants single-op lanes (extra eager ops "
                 "would draw the withheld value early)");

  // The construction: the extra lane defers its invocation past the first
  // wave, and the wave token that exits output port 0 parks pre-counter —
  // withholding value 0. The late token traverses a quiescent network, so
  // the step property routes it to port 0; it fetches 0 having started
  // strictly after values 1..width-1 completed. Which lane exits port 0
  // depends on wave timing, so probe the schedule (with only the defer
  // placed — parking is post-routing and cannot change the wave) and park
  // the lane that drew value 0.
  const Placement late{width, 0, 0};
  const psim::Script probe = make_schedule(net, options, {late});
  const psim::MachineResult base = run_schedule(net, options, probe, false);
  std::uint32_t port0_lane = 0;
  for (const lin::Operation& op : base.history) {
    if (op.value == 0) port0_lane = op.actor;
  }
  return {Placement{port0_lane, 0, net.depth()}, late};
}

SearchResult search(const topo::Network& net, const SearchOptions& options) {
  CNET_CHECK(options.budget >= 1);
  CNET_CHECK(options.max_stalls >= 1);
  SearchResult result;
  const std::uint32_t depth = net.depth();

  // The base schedule is evaluation #1: it is the class representative for
  // every commuting placement, and the no-stall baseline the report's best
  // must beat to mean anything.
  const BaseRun base = run_base(net, options);
  result.evaluated = 1;
  result.best_magnitude = base.magnitude;
  result.best_fraction = base.fraction;

  std::vector<Placement> candidates;
  for (std::uint32_t p = 0; p < options.procs; ++p) {
    for (std::uint32_t o = 0; o < options.ops_per_proc; ++o) {
      for (std::uint32_t h = 0; h <= depth; ++h) {
        const Placement pl{p, o, h};
        if (commutes_with_base(base, net, pl, placement_cycles(pl, options))) {
          ++result.pruned;
        } else {
          candidates.push_back(pl);
        }
      }
    }
  }

  // Enumerate placement sets of ascending size; a budget hit anywhere stops
  // the whole search with budget_exhausted set.
  std::vector<Placement> current;
  bool stop = false;
  auto evaluate = [&](const std::vector<Placement>& set) {
    if (result.evaluated >= options.budget) {
      result.budget_exhausted = true;
      stop = true;
      return;
    }
    ++result.evaluated;
    const psim::Script script = make_schedule(net, options, set);
    const psim::MachineResult run = run_schedule(net, options, script, false);
    const std::uint64_t magnitude = lin::inversion_magnitude(run.history);
    if (magnitude > result.best_magnitude) {
      result.best_magnitude = magnitude;
      result.best_fraction = run.analysis.fraction();
      result.best = set;
    }
  };
  auto extend = [&](auto&& self, std::size_t from, std::uint32_t remaining) -> void {
    if (stop || remaining == 0) return;
    for (std::size_t i = from; i < candidates.size() && !stop; ++i) {
      current.push_back(candidates[i]);
      evaluate(current);
      self(self, i + 1, remaining - 1);
      current.pop_back();
    }
  };
  extend(extend, 0, options.max_stalls);
  return result;
}

std::string SearchResult::to_json(const std::string& spec) const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"spec\": \"" << spec << "\",\n";
  os << "  \"evaluated\": " << evaluated << ",\n";
  os << "  \"pruned\": " << pruned << ",\n";
  os << "  \"budget_exhausted\": " << (budget_exhausted ? "true" : "false") << ",\n";
  os << "  \"best\": {\n";
  os << "    \"magnitude\": " << best_magnitude << ",\n";
  os << "    \"fraction\": " << best_fraction << ",\n";
  os << "    \"placements\": [";
  for (std::size_t i = 0; i < best.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"proc\": " << best[i].proc << ", \"op\": " << best[i].op
       << ", \"hop\": " << best[i].hop << ", \"cycles\": " << best[i].cycles << "}";
  }
  os << "]\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

}  // namespace cnet::sched
