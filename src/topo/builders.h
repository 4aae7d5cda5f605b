// Constructions of the counting networks treated by the paper.
//
//  * make_balancer        — the depth-1 network of the §1 example.
//  * make_bitonic         — Bitonic[w] of Aspnes, Herlihy, and Shavit [4]:
//                           two Bitonic[w/2] followed by Merger[w];
//                           depth log w (log w + 1) / 2. Its issuer order
//                           is bit reversal (Network::issuer_input).
//  * make_periodic        — Periodic[w] of [4]: log w cascaded Block[w]
//                           butterfly blocks; depth (log w)^2.
//  * make_counting_tree   — the counting tree underlying diffracting trees
//                           [21]: a binary tree of 1-in/2-out balancers with
//                           shuffle-ordered leaves; depth log w.
//  * make_padded          — Cor 3.12: the input-padding transformation that
//                           prefixes every input with a chain of 1-in/1-out
//                           pass-through nodes to restore linearizability for
//                           a known c2/c1 bound; keeps the base's issuer
//                           order.
//
// All builders produce uniform networks (Def 2.1); this is asserted in
// build() metadata and exercised by the test suite.
#pragma once

#include <cstdint>

#include "topo/network.h"

namespace cnet::topo {

/// True iff w is a power of two (and nonzero).
constexpr bool is_pow2(std::uint64_t w) { return w != 0 && (w & (w - 1)) == 0; }

/// Integer log2 of a power of two.
constexpr std::uint32_t log2_exact(std::uint64_t w) {
  std::uint32_t lg = 0;
  while ((1ull << lg) < w) ++lg;
  return lg;
}

/// One balancing node with `fan` inputs and `fan` outputs; depth 1.
Network make_balancer(std::uint32_t fan);

/// Bitonic[w]; requires w a power of two, w >= 2. Issuer i enters at input
/// bitrev(i), the bit reversal of i over log w bits.
Network make_bitonic(std::uint32_t width);

/// Merger[w] as a stand-alone network (used by tests and the Thm 4.4
/// schedule); requires w a power of two, w >= 2. A Merger[w] merges two
/// step-sequences of width w/2 into one of width w.
Network make_merger(std::uint32_t width);

/// Periodic[w]; requires w a power of two, w >= 2.
Network make_periodic(std::uint32_t width);

/// One butterfly Block[w] (NOT a counting network by itself; exported for
/// tests and ablations); requires w a power of two, w >= 2.
Network make_block(std::uint32_t width);

/// Counting tree with one input and `width` outputs; requires width a power
/// of two, width >= 2. This is the static topology a diffracting tree
/// implements.
Network make_counting_tree(std::uint32_t width);

/// Generalized counting tree with fan-out `fan` balancers (Aharonson/Attiya
/// [1] study such arbitrary-fan-out networks): one input, fan^height leaves,
/// depth = height. make_counting_tree(w) is the fan = 2 case.
Network make_kary_tree(std::uint32_t fan, std::uint32_t height);

/// Cor 3.12 padding: a copy of `base` whose every input is preceded by a
/// chain of `prefix_len` 1-in/1-out pass-through nodes. For a base network of
/// depth h and a known k > 2 with c2 < k*c1, prefix_len = h*(k-2) makes the
/// result linearizable (depth h*(k-1)). Keeps `base`'s issuer order.
Network make_padded(const Network& base, std::uint32_t prefix_len);

/// Padding length prescribed by Cor 3.12 for depth h and ratio bound k.
constexpr std::uint32_t padding_prefix_length(std::uint32_t depth, std::uint32_t k) {
  return k <= 2 ? 0 : depth * (k - 2);
}

/// Serial composition: `first`'s output i feeds `second`'s input i. Requires
/// matching widths. Counting networks do not generally stay counting under
/// cascading (a counting network's outputs are step-shaped, which `second`
/// preserves, so counting-after-counting *does* hold — the periodic network
/// is log w cascaded non-counting blocks though, so the primitive is exposed
/// for construction and experiments rather than with a blanket guarantee).
/// Keeps `first`'s issuer order.
Network make_serial(const Network& first, const Network& second);

/// Parallel composition: `top` on inputs/outputs 0..v1-1, `bottom` on the
/// rest. The result is a balancing network but (like two independent
/// balancers) not a counting network by itself; it is the first stage of the
/// bitonic recursion.
Network make_parallel(const Network& top, const Network& bottom);

}  // namespace cnet::topo
