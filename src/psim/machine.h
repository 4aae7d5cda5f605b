// The §5 benchmark driver: n simulated processors repeatedly traverse a
// counting network built from simulated balancers, a fraction F of them
// waiting W cycles after every node, until `total_ops` operations have been
// performed. Produces the operation history (for the Def 2.4 analysis), the
// measured toggle wait Tog, and the paper's average-c2/c1 estimate
// (Tog + W) / Tog — i.e., everything Figures 5-7 plot.
#pragma once

#include <cstdint>
#include <vector>

#include "lin/checker.h"
#include "lin/history.h"
#include "psim/balancer.h"
#include "psim/engine.h"
#include "psim/memory.h"
#include "topo/network.h"
#include "util/stats.h"

namespace cnet::obs {
struct PsimMetrics;  // obs/backend_metrics.h
}

namespace cnet::fault {
class Injector;  // fault/injector.h
}

namespace cnet::psim {

/// One scripted operation: an entry wire, an invocation defer, and per-hop
/// stall debits. `defer` cycles are slept before the operation is invoked
/// (before its start timestamp) — the §4 adversary's control over *when* a
/// processor issues, which is what lets a late token draw a withheld low
/// value after earlier operations have completed. stalls[k] simulated
/// cycles are charged after the op's (k+1)-th node traversal, before the
/// token moves on — at the final node that window sits between the last
/// balancer and the output-counter access, which is exactly where the §4
/// adversary parks a token. Entries beyond the op's actual hop count are
/// ignored; zero entries charge nothing.
struct ScriptedOp {
  std::uint32_t input = 0;  ///< entry wire (taken modulo the input width)
  Cycle defer = 0;          ///< cycles slept before the op is invoked
  std::vector<Cycle> stalls;
};

/// A fixed schedule for the machine: lane p is the exact operation sequence
/// processor p issues, replacing closed-loop issuance and the F/W waits.
/// The engine fires events in deterministic (cycle, seq) order, so one
/// script always produces one history — this is what sched::replay() and
/// the adversarial schedule search execute.
struct Script {
  std::vector<std::vector<ScriptedOp>> procs;

  std::uint64_t total_ops() const {
    std::uint64_t n = 0;
    for (const auto& lane : procs) n += lane.size();
    return n;
  }
};

struct MachineParams {
  std::uint32_t processors = 4;
  std::uint64_t total_ops = 5000;

  /// Fraction of processors that wait `wait_cycles` after traversing a node
  /// (the paper's F; the first round(F*n) processors are the delayed ones).
  double delayed_fraction = 0.25;
  Cycle wait_cycles = 1000;

  /// §5 control scenario: *every* processor waits a uniformly random number
  /// of cycles in [0, wait_cycles] after each node (instead of the
  /// deterministic F/W scheme).
  bool random_wait = false;

  std::uint64_t seed = 1;

  /// Non-memory work when hopping from one node to the next (address
  /// arithmetic etc.).
  Cycle hop_cycles = 4;

  MemParams mem{};

  /// Use DiffractingBalancer for 1-in/2-out nodes (the diffracting-tree
  /// configuration); all other nodes use the MCS toggle balancer.
  bool use_diffraction = false;
  PrismParams prism{};

  /// Observability sink (borrowed; may be null — the default). When set,
  /// the run records cycle-stamped event counts, per-hop and per-op
  /// latencies in simulated cycles, and — if metrics->trace is enabled — a
  /// chrome://tracing dump of token hops. Null leaves one test per hop.
  /// Recording never touches the engine: an instrumented run is
  /// cycle-for-cycle identical to a bare one.
  obs::PsimMetrics* metrics = nullptr;

  /// Fault-plan realization (borrowed; may be null). `stall:` clauses charge
  /// the plan's stall_ns as simulated cycles after an eligible node
  /// traversal (decision stream keyed by processor id, hop targeting by the
  /// node's 1-based layer); `delay:` clauses charge delay_ns cycles before a
  /// node accepts the token (stream keyed by the destination node id). The
  /// plan's ns fields are read 1:1 as cycles — the simulator has no
  /// nanoseconds. pause/die have no psim realization and the spec parser
  /// rejects them. Deterministic by construction: the single-threaded engine
  /// draws every decision in (cycle, seq) firing order, so one (plan, seed)
  /// yields one schedule.
  fault::Injector* fault = nullptr;

  /// Fixed-schedule mode (borrowed; may be null). When set, `processors`,
  /// `total_ops`, `delayed_fraction`, and `random_wait` are ignored:
  /// script->procs.size() processors each run exactly their scripted ops,
  /// with the scripted stall debits and no random waits.
  const Script* script = nullptr;

  /// Record every op's node arrivals into MachineResult::op_hops (the
  /// schedule search's commuting-events analysis needs them). Recording
  /// never touches the engine; a recorded run is cycle-identical.
  bool record_hops = false;
};

/// One node arrival in a record_hops run.
struct HopRecord {
  topo::NodeId node = 0;
  std::uint32_t port = 0;  ///< exit port the balancer chose
  Cycle at = 0;            ///< cycle the token reached the node
};

struct LayerStats {
  double avg_tog = 0.0;
  std::uint64_t toggles = 0;
  std::uint64_t diffractions = 0;
};

struct MachineResult {
  lin::History history;
  lin::CheckResult analysis;
  std::vector<LayerStats> layers;  ///< per network layer (1-based -> index 0)

  /// Per-op node arrivals, parallel to `history` (record_hops runs only).
  std::vector<std::vector<HopRecord>> op_hops;

  Summary op_latency;           ///< per-operation start->completion cycles
  double avg_tog = 0.0;         ///< mean toggle wait over all balancers (cycles)
  double avg_c2_over_c1 = 0.0;  ///< (Tog + W) / Tog, the paper's Figure 7 metric
  std::uint64_t toggles = 0;
  std::uint64_t diffractions = 0;
  Cycle makespan = 0;           ///< cycle at which the last operation completed
  std::uint64_t memory_accesses = 0;
  std::uint64_t events = 0;
};

/// Runs the workload to completion; deterministic in (net, params).
MachineResult run_workload(const topo::Network& net, const MachineParams& params);

}  // namespace cnet::psim
