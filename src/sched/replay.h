// Deterministic re-execution of a captured schedule: a sched::Trace
// recorded on a live backend (rt or mp) becomes a fixed psim Script — one
// lane per captured actor, each op entering at its recorded wire with its
// recorded per-hop stall debits — and the cycle simulator runs it to a
// single, reproducible history. What replays is the *schedule shape*: which
// lane issued which ops in what order and where the adversary's stalls
// landed. psim's balancers then route under that schedule, so two replays
// of one trace are identical cycle for cycle, which is what turns a
// violating chaos run into a regression test.
//
// Unit convention: recorded stall_ns values are charged 1:1 as simulated
// cycles. The replay preserves stall ordering and relative magnitude, not
// wall time — the simulator has no nanoseconds.
#pragma once

#include <cstdint>

#include "lin/checker.h"
#include "psim/machine.h"
#include "sched/trace.h"
#include "topo/network.h"

namespace cnet::sched {

struct ReplayOptions {
  std::uint32_t hop_cycles = 4;  ///< psim inter-node cost (MachineParams)
};

struct ReplayResult {
  lin::History history;
  lin::CheckResult analysis;  ///< Def 2.4 verdict of the replayed history
  psim::Cycle makespan = 0;
};

/// Lowers a trace to a psim Script: lanes in trace token order (one per
/// actor; unattributed records share the trailing kNoActor lane), each op
/// entering at its recorded wire modulo `input_width` with its recorded
/// stall debits by hop index.
psim::Script script_from_trace(const Trace& trace, std::uint32_t input_width);

/// Re-executes `trace` on `net` as a fixed psim schedule. Deterministic in
/// (net, trace, options); an empty trace returns an empty result.
ReplayResult replay(const topo::Network& net, const Trace& trace, const ReplayOptions& options = {});

}  // namespace cnet::sched
