// Closed-form results of §3 and §4, as executable formulas.
//
// These are deliberately tiny functions: the point of the module is to give
// the bounds a single authoritative home that the tests cross-validate
// against the simulators (e.g., the tree_separation_probe shows violations
// exactly up to finish_start_separation and never beyond it).
#pragma once

#include <cstdint>

namespace cnet::theory {

/// Thm 3.6: if T2 starts more than this after T1 *finishes*, T2 returns a
/// higher value (uniform network of depth h). May be negative, in which case
/// any non-overlapping pair is ordered (the network is linearizable).
double finish_start_separation(std::uint32_t depth, double c1, double c2);

/// Lemma 3.7: sufficient *start-start* separation: 2 * h * (c2 - c1).
double start_start_separation(std::uint32_t depth, double c1, double c2);

/// Cor 3.9: every uniform counting network is linearizable when c2 <= 2*c1.
bool linearizable_guaranteed(double c1, double c2);

/// Thm 4.1 / 4.3: trees and bitonic networks admit non-linearizable
/// executions exactly when c2 > 2*c1.
bool violation_constructible(double c1, double c2);

/// Thm 4.4: threshold on c2/c1 beyond which bitonic networks of width w
/// admit executions where a constant fraction of operations is
/// non-linearizable: (3 + log w) / 2.
double bitonic_wave_threshold(std::uint32_t width);

/// Cor 3.12: depth h*(k-1) of a depth-h uniform counting network behind the
/// h*(k-2) pass-through prefix (topo::padding_prefix_length) that keeps it
/// linearizable when c2 < k*c1 (k >= 2 known a priori).
std::uint32_t padded_depth(std::uint32_t depth, std::uint32_t k);

/// Depth formulas of the constructions (cross-checked against the builders).
std::uint32_t bitonic_depth(std::uint32_t width);    ///< log w (log w + 1) / 2
std::uint32_t periodic_depth(std::uint32_t width);   ///< (log w)^2
std::uint32_t tree_depth(std::uint32_t width);       ///< log w

/// §5: the paper's estimate of the average c2/c1 ratio in the simulation
/// experiments: (Tog + W) / Tog, where Tog is the average time a token waits
/// before toggling a balancer and W the injected post-node delay.
double average_c2_over_c1(double tog, double wait);

}  // namespace cnet::theory
