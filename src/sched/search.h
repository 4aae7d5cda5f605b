// Adversarial schedule search: a bounded enumerator over stall and defer
// placements in the cycle simulator, maximizing the Def 2.4 inversion
// magnitude — the paper's §4 lower-bound constructions, found mechanically
// instead of by hand. A candidate schedule is a base workload (procs lanes
// of ops_per_proc closed-loop ops each, no random waits) plus a set of
// (proc, op, hop) placements. A placement with hop >= 1 charges a stall
// between the hop-th balancer release and the token's next step; the
// deepest hop stalls between the last balancer and the output counter,
// which is exactly where the §4 adversary parks a token. A placement with
// hop == 0 defers the op's *invocation* — the adversary's other §4 power:
// a token that enters late, after earlier operations have completed, so
// the withheld low value it draws is a strict-precedence inversion.
// Deferred invocations use half the stall length, so a parked token's
// window always covers a deferred op's entry plus its whole traversal —
// the park-contains-defer shape §4 needs is expressible with the single
// stall_cycles knob. Every candidate evaluates deterministically
// (psim::Script), so the search is reproducible and its best schedule
// replays exactly.
//
// Pruning (DPOR-flavored): a placement delays exactly the placed token's
// remaining events — its arrivals at the nodes after the stalled hop (all
// of them, for a defer) and its output-counter access. The searcher runs
// the *base* schedule once with hop recording and checks, per candidate
// placement, whether any other token's base-run event lands on one of
// those nodes (or that counter) inside the delay window. A defer
// additionally slides the op's start, which can only *add* precedence
// edges into the op — so a defer also requires that no other op's
// completion falls inside the window after the op's base start. If
// nothing does, every delayed event commutes with the entire rest of the
// schedule: the token re-reads the same balancer states, takes the same
// path, draws the same value, no other op changes, and no new precedence
// edge appears — the history can only *lose* precedence edges, so the
// placement's magnitude is bounded by the base run's. All such commuting
// placements collapse into the base class (counted in `pruned`) instead
// of being evaluated. The reduction is applied to single-placement
// candidates only; multi-placement sets can interact through their
// combined delays, so they are enumerated in full.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "psim/machine.h"
#include "topo/network.h"

namespace cnet::sched {

/// One placed delay on lane `proc`'s `op`-th operation (0-based). hop >= 1
/// stalls the token after its hop-th node traversal (1-based; hop == the
/// network depth is the pre-counter §4 window); hop == 0 defers the op's
/// invocation instead. `cycles` overrides the delay length; 0 means the
/// search default — SearchOptions::stall_cycles for a stall, half that for
/// a defer (see the header comment for why parks must outlast defers).
struct Placement {
  std::uint32_t proc = 0;
  std::uint32_t op = 0;
  std::uint32_t hop = 1;
  std::uint64_t cycles = 0;

  friend bool operator==(const Placement&, const Placement&) = default;
};

struct SearchOptions {
  std::uint32_t procs = 4;         ///< schedule lanes (input = proc % width)
  std::uint32_t ops_per_proc = 3;  ///< closed-loop ops per lane
  std::uint32_t max_stalls = 1;    ///< max simultaneous placements per schedule
  psim::Cycle stall_cycles = 1u << 20;  ///< length of each placed stall
  std::uint64_t budget = 10000;    ///< max schedule evaluations
  std::uint32_t hop_cycles = 4;    ///< psim inter-node cost
};

struct SearchResult {
  std::uint64_t evaluated = 0;  ///< schedules actually run (incl. the base)
  std::uint64_t pruned = 0;     ///< placements collapsed into the base class
  bool budget_exhausted = false;

  std::uint64_t best_magnitude = 0;  ///< worst inversion found (Def 2.4)
  double best_fraction = 0.0;        ///< violating-op fraction of that run
  std::vector<Placement> best;       ///< the schedule that produced it

  /// The report the CLI emits: spec, counters, and the worst schedule.
  std::string to_json(const std::string& spec) const;
};

/// Builds the scripted schedule for a placement set (exposed so tests can
/// evaluate explicit schedules and the searcher's encoding stays honest).
psim::Script make_schedule(const topo::Network& net, const SearchOptions& options,
                           const std::vector<Placement>& placements);

/// The paper's §4 construction as an explicit placement set, for a
/// schedule of width+1 single-op lanes (options.procs == width + 1,
/// ops_per_proc == 1): the lane whose token exits output port 0 — found
/// by a probe run, since routing depends on wave timing — parks in the
/// pre-counter window, and the one extra lane defers its invocation until
/// the first wave has completed. The late token is then routed to port 0
/// by the step property and fetches the withheld value 0 after values
/// 1..width-1 have strictly completed: an inversion of exactly width - 1.
/// search() with max_stalls >= 2 rediscovers this schedule mechanically
/// (tests/sched_search_test.cpp pins both on bitonic[4]).
std::vector<Placement> section4_placements(const topo::Network& net,
                                           const SearchOptions& options);

/// Bounded enumeration over placement sets of size 1..max_stalls.
SearchResult search(const topo::Network& net, const SearchOptions& options);

}  // namespace cnet::sched
