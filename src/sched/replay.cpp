#include "sched/replay.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace cnet::sched {

psim::Script script_from_trace(const Trace& trace, std::uint32_t input_width) {
  const std::uint32_t width = std::max(1u, input_width);
  psim::Script script;
  std::unordered_map<std::uint32_t, std::size_t> lane_of;
  for (const TokenRecord& tok : trace.tokens) {
    const auto [it, fresh] = lane_of.try_emplace(tok.actor, script.procs.size());
    if (fresh) script.procs.emplace_back();
    psim::ScriptedOp op;
    op.input = tok.input % width;
    op.stalls.reserve(tok.hops.size());
    for (const HopEvent& hop : tok.hops) op.stalls.push_back(hop.stall_ns);
    script.procs[it->second].push_back(std::move(op));
  }
  return script;
}

ReplayResult replay(const topo::Network& net, const Trace& trace, const ReplayOptions& options) {
  ReplayResult out;
  if (trace.tokens.empty()) return out;
  const psim::Script script = script_from_trace(trace, net.input_width());
  psim::MachineParams params;
  params.script = &script;
  params.hop_cycles = options.hop_cycles;
  psim::MachineResult result = psim::run_workload(net, params);
  out.analysis = result.analysis;
  out.makespan = result.makespan;
  out.history = std::move(result.history);
  return out;
}

}  // namespace cnet::sched
