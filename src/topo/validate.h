// Verification of the counting (quiescent step) property.
//
// Key fact used throughout (and proved in the test suite empirically): with
// atomic balancers that route their t-th arriving token to output t mod
// fan_out, the quiescent token distribution of a balancing network depends
// only on how many tokens entered on each input, not on the interleaving.
// Each node's output counts are a function of its total arrival count, and
// arrival counts propagate deterministically through the DAG. Hence the
// counting property can be checked one input vector at a time with the
// SequentialRouter, with no schedule enumeration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/network.h"
#include "util/rng.h"

namespace cnet::topo {

/// Step property of Def 2.2 on a vector of per-output token counts:
/// 0 <= y_i - y_j <= 1 for all i < j.
bool has_step_property(const std::vector<std::uint64_t>& counts);

/// The unique step-shaped distribution of `total` tokens over `width`
/// outputs: a_i = ceil((total - i) / width).
std::vector<std::uint64_t> step_vector(std::uint64_t total, std::uint32_t width);

/// Routes `input_tokens[i]` tokens into input i (round-robin) and reports
/// whether the quiescent output distribution has the step property.
bool counts_for_vector(const Network& net, const std::vector<std::uint64_t>& input_tokens);

struct VerifyResult {
  bool ok = true;
  std::uint64_t vectors_checked = 0;
  std::vector<std::uint64_t> failing_vector;  ///< empty when ok
  std::string message;
};

/// Exhaustively checks all input vectors with at most `max_per_input` tokens
/// per input. Cost is (max_per_input+1)^v vectors; use only for small
/// networks.
VerifyResult verify_counting_exhaustive(const Network& net, std::uint64_t max_per_input);

/// Randomized check over `trials` input vectors with per-input counts drawn
/// uniformly from [0, max_per_input].
VerifyResult verify_counting_random(const Network& net, std::uint64_t max_per_input,
                                    std::uint64_t trials, Rng& rng);

}  // namespace cnet::topo
