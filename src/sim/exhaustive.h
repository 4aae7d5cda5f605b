// Bounded exhaustive adversary: enumerate EVERY schedule of a small token
// set on a small network — all entry times on a lattice, all per-link delay
// choices from {c1, c2} — and report whether any schedule is
// non-linearizable.
//
// This complements the §4 constructions: instead of exhibiting one bad
// schedule, it *certifies* small instances. In particular it machine-checks
// the threshold of Cor 3.9 / Thm 4.1 from both sides: with c2 <= 2*c1 no
// schedule in the (fully enumerated) class violates, and with any c2 > 2*c1
// a violating schedule is found once the entry lattice is fine enough.
//
// Adversary class and its limits: entry times range over
// {0, step, ..., (entry_slots-1)*step} per token (ties resolved in token-id
// order; since tokens are interchangeable and delay vectors are enumerated
// per token, tie orderings are covered up to isomorphism), each link delay
// is c1 or c2 (the extremes suffice: the checker's verdict is monotone in
// each delay), and inputs are fixed round-robin or enumerated.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/network.h"

namespace cnet::sim {

struct ExhaustiveParams {
  /// Enumeration bounds: at most kMaxTokens tokens, each choosing one
  /// delay mask over at most kMaxDepth layers.
  static constexpr std::uint32_t kMaxTokens = 8;
  static constexpr std::uint32_t kMaxDepth = 16;

  std::uint32_t tokens = 3;
  double c1 = 1.0;
  double c2 = 3.0;
  std::uint32_t entry_slots = 6;  ///< lattice size per token
  double entry_step = 0.5;        ///< lattice spacing
  /// false: token i enters input i mod v. true: enumerate all input
  /// assignments too (multiplies the schedule count by v^tokens).
  bool enumerate_inputs = false;
};

struct ScheduleWitness {
  struct TokenPlan {
    double entry = 0.0;
    std::uint32_t input = 0;
    std::vector<double> link_delays;  ///< one per layer
    std::uint64_t value = 0;
    double exit = 0.0;
  };
  std::vector<TokenPlan> tokens;
};

struct ExhaustiveResult {
  bool violation_found = false;
  std::uint64_t schedules_checked = 0;
  ScheduleWitness witness;  ///< the first violating schedule, if any
};

/// Runs the full enumeration (cost: (entry_slots * 2^depth [* v])^tokens
/// simulations — keep the network and token count small). Stops at the
/// first violation.
ExhaustiveResult exhaustive_search(const topo::Network& net, const ExhaustiveParams& params);

}  // namespace cnet::sim
