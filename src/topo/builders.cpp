#include "topo/builders.h"

#include <string>
#include <vector>

#include "util/assert.h"

namespace cnet::topo {
namespace {

/// A logical wire during recursive construction: the producing endpoint,
/// which is either a network input (node == kNoNode, port = input index) or a
/// node output port.
struct Wire {
  NodeId node = kNoNode;
  std::uint32_t port = 0;
};

/// Wires `src` into input port `in_port` of node `to`, handling the
/// network-input case.
void link(NetworkBuilder& b, Wire src, NodeId to, std::uint32_t in_port) {
  if (src.node == kNoNode) {
    b.attach_input(src.port, to, in_port);
  } else {
    b.connect(src.node, src.port, to, in_port);
  }
}

/// Adds a 2x2 balancer fed by wires a (input 0) and b (input 1); returns its
/// two output wires.
std::pair<Wire, Wire> balancer2(NetworkBuilder& b, Wire a, Wire wb) {
  const NodeId id = b.add_node(2, 2);
  link(b, a, id, 0);
  link(b, wb, id, 1);
  return {Wire{id, 0}, Wire{id, 1}};
}

std::vector<Wire> input_wires(std::uint32_t width) {
  std::vector<Wire> wires(width);
  for (std::uint32_t i = 0; i < width; ++i) wires[i] = Wire{kNoNode, i};
  return wires;
}

void attach_all_outputs(NetworkBuilder& b, const std::vector<Wire>& wires) {
  for (std::uint32_t i = 0; i < wires.size(); ++i) {
    CNET_CHECK(wires[i].node != kNoNode);
    b.attach_output(wires[i].node, wires[i].port, i);
  }
}

std::vector<Wire> evens(const std::vector<Wire>& v) {
  std::vector<Wire> out;
  for (std::size_t i = 0; i < v.size(); i += 2) out.push_back(v[i]);
  return out;
}

std::vector<Wire> odds(const std::vector<Wire>& v) {
  std::vector<Wire> out;
  for (std::size_t i = 1; i < v.size(); i += 2) out.push_back(v[i]);
  return out;
}

/// Merger[2k] of [4] on two k-wide inputs `a` and `b`, each assumed to carry
/// a step-shaped token distribution (i.e., to be the output of a counting
/// network). Recursion: Merger_1 merges even(a) with odd(b), Merger_2 merges
/// odd(a) with even(b); a final layer of k balancers joins z_i with z'_i into
/// outputs 2i, 2i+1.
std::vector<Wire> merger(NetworkBuilder& b, const std::vector<Wire>& a,
                         const std::vector<Wire>& bb) {
  CNET_CHECK(a.size() == bb.size() && !a.empty());
  const std::size_t k = a.size();
  if (k == 1) {
    auto [y0, y1] = balancer2(b, a[0], bb[0]);
    return {y0, y1};
  }
  const std::vector<Wire> z1 = merger(b, evens(a), odds(bb));
  const std::vector<Wire> z2 = merger(b, odds(a), evens(bb));
  std::vector<Wire> out(2 * k);
  for (std::size_t i = 0; i < k; ++i) {
    auto [y0, y1] = balancer2(b, z1[i], z2[i]);
    out[2 * i] = y0;
    out[2 * i + 1] = y1;
  }
  return out;
}

/// Bitonic[w]: two parallel Bitonic[w/2] followed by Merger[w].
std::vector<Wire> bitonic(NetworkBuilder& b, const std::vector<Wire>& in) {
  if (in.size() == 1) return in;
  const std::size_t k = in.size() / 2;
  const std::vector<Wire> top = bitonic(b, {in.begin(), in.begin() + static_cast<long>(k)});
  const std::vector<Wire> bot = bitonic(b, {in.begin() + static_cast<long>(k), in.end()});
  return merger(b, top, bot);
}

/// Block[w] of the periodic network: the balanced block of Dowd, Perl,
/// Rudolph, and Saks with comparators replaced by balancers, as in [4]. The
/// structure is a recursive mirror: one layer pairs wire lo+i with wire
/// lo+size-1-i, then the same structure recurses into both halves (log size
/// layers total). Verified as the unique candidate among the natural
/// butterfly/cochain variants that yields a counting network when cascaded
/// log w times (see tests/topo_periodic_test.cpp).
void block(NetworkBuilder& b, std::vector<Wire>& wires, std::size_t lo, std::size_t size) {
  if (size < 2) return;
  const std::size_t half = size / 2;
  for (std::size_t i = 0; i < half; ++i) {
    auto [y0, y1] = balancer2(b, wires[lo + i], wires[lo + size - 1 - i]);
    wires[lo + i] = y0;
    wires[lo + size - 1 - i] = y1;
  }
  block(b, wires, lo, half);
  block(b, wires, lo + half, half);
}

/// Counting-tree recursion (arbitrary fan): returns the leaf wires of a
/// subtree rooted at `src` with fan^height leaves, in network-output order.
/// Child c's leaves land on global positions congruent to c modulo fan, so
/// that the k-th token overall exits on leaf k mod width.
std::vector<Wire> tree(NetworkBuilder& b, Wire src, std::uint32_t fan, std::uint32_t height) {
  if (height == 0) return {src};
  const NodeId id = b.add_node(1, fan);
  link(b, src, id, 0);
  std::uint32_t child_leaves = 1;
  for (std::uint32_t l = 1; l < height; ++l) child_leaves *= fan;
  std::vector<Wire> out(child_leaves * fan);
  for (std::uint32_t c = 0; c < fan; ++c) {
    const std::vector<Wire> child = tree(b, Wire{id, c}, fan, height - 1);
    for (std::uint32_t j = 0; j < child_leaves; ++j) out[j * fan + c] = child[j];
  }
  return out;
}

}  // namespace

Network make_balancer(std::uint32_t fan) {
  CNET_CHECK(fan >= 1);
  NetworkBuilder b(fan, fan);
  const NodeId id = b.add_node(fan, fan);
  for (std::uint32_t i = 0; i < fan; ++i) {
    b.attach_input(i, id, i);
    b.attach_output(id, i, i);
  }
  b.set_name("Balancer[" + std::to_string(fan) + "]");
  return b.build();
}

Network make_bitonic(std::uint32_t width) {
  CNET_CHECK_MSG(is_pow2(width) && width >= 2, "bitonic width must be a power of two >= 2");
  NetworkBuilder b(width, width);
  const std::vector<Wire> out = bitonic(b, input_wires(width));
  attach_all_outputs(b, out);
  // Issuers along the recursion: issuer i enters at input bitrev(i), so
  // issuers 0..2^k-1 land in 2^k disjoint Bitonic[w/2^k] blocks.
  const std::uint32_t top_bit = width >> 1;
  std::vector<std::uint32_t> order(width, 0);
  for (std::uint32_t i = 1; i < width; ++i) {
    order[i] = (order[i >> 1] >> 1) | ((i & 1) != 0 ? top_bit : 0);
  }
  b.set_issuer_order(std::move(order));
  b.set_name("Bitonic[" + std::to_string(width) + "]");
  return b.build();
}

Network make_merger(std::uint32_t width) {
  CNET_CHECK_MSG(is_pow2(width) && width >= 2, "merger width must be a power of two >= 2");
  NetworkBuilder b(width, width);
  const std::vector<Wire> in = input_wires(width);
  const std::size_t k = width / 2;
  const std::vector<Wire> out =
      merger(b, {in.begin(), in.begin() + static_cast<long>(k)},
             {in.begin() + static_cast<long>(k), in.end()});
  attach_all_outputs(b, out);
  b.set_name("Merger[" + std::to_string(width) + "]");
  return b.build();
}

Network make_block(std::uint32_t width) {
  CNET_CHECK_MSG(is_pow2(width) && width >= 2, "block width must be a power of two >= 2");
  NetworkBuilder b(width, width);
  std::vector<Wire> wires = input_wires(width);
  block(b, wires, 0, wires.size());
  attach_all_outputs(b, wires);
  b.set_name("Block[" + std::to_string(width) + "]");
  return b.build();
}

Network make_periodic(std::uint32_t width) {
  CNET_CHECK_MSG(is_pow2(width) && width >= 2, "periodic width must be a power of two >= 2");
  NetworkBuilder b(width, width);
  std::vector<Wire> wires = input_wires(width);
  const std::uint32_t rounds = log2_exact(width);
  for (std::uint32_t r = 0; r < rounds; ++r) block(b, wires, 0, wires.size());
  attach_all_outputs(b, wires);
  b.set_name("Periodic[" + std::to_string(width) + "]");
  return b.build();
}

Network make_counting_tree(std::uint32_t width) {
  CNET_CHECK_MSG(is_pow2(width) && width >= 2, "tree width must be a power of two >= 2");
  NetworkBuilder b(1, width);
  const std::vector<Wire> leaves = tree(b, Wire{kNoNode, 0}, 2, log2_exact(width));
  attach_all_outputs(b, leaves);
  b.set_name("Tree[" + std::to_string(width) + "]");
  return b.build();
}

Network make_kary_tree(std::uint32_t fan, std::uint32_t height) {
  CNET_CHECK_MSG(fan >= 2, "fan must be >= 2");
  CNET_CHECK_MSG(height >= 1, "height must be >= 1");
  std::uint32_t width = 1;
  for (std::uint32_t l = 0; l < height; ++l) {
    CNET_CHECK_MSG(width <= 0xffffffffu / fan, "tree too wide");
    width *= fan;
  }
  NetworkBuilder b(1, width);
  const std::vector<Wire> leaves = tree(b, Wire{kNoNode, 0}, fan, height);
  attach_all_outputs(b, leaves);
  b.set_name("Tree[" + std::to_string(fan) + "^" + std::to_string(height) + "]");
  return b.build();
}

namespace {

/// Copies `base`'s nodes into `b`, resolving the base's network inputs via
/// `input_sources` (producer wires) and reporting the clone's output wires
/// through `output_wires`. Used by the composition helpers.
void clone_network(NetworkBuilder& b, const Network& base, const std::vector<Wire>& input_sources,
                   std::vector<Wire>& output_wires) {
  CNET_CHECK(input_sources.size() == base.input_width());
  std::vector<NodeId> map(base.node_count());
  for (NodeId n = 0; n < base.node_count(); ++n)
    map[n] = b.add_node(base.node(n).fan_in, base.node(n).fan_out);
  for (NodeId n = 0; n < base.node_count(); ++n) {
    const Node& node = base.node(n);
    for (std::uint32_t p = 0; p < node.fan_in; ++p) {
      const InLink& src = node.in[p];
      if (src.node == kNoNode) {
        link(b, input_sources[src.port], map[n], p);
      } else {
        b.connect(map[src.node], src.port, map[n], p);
      }
    }
  }
  output_wires.resize(base.output_width());
  for (std::uint32_t i = 0; i < base.output_width(); ++i) {
    const InLink& src = base.outputs()[i];
    output_wires[i] = Wire{map[src.node], src.port};
  }
}

}  // namespace

Network make_serial(const Network& first, const Network& second) {
  CNET_CHECK_MSG(first.output_width() == second.input_width(),
                 "serial composition requires matching widths");
  NetworkBuilder b(first.input_width(), second.output_width());
  std::vector<Wire> stage1_out;
  clone_network(b, first, input_wires(first.input_width()), stage1_out);
  std::vector<Wire> stage2_out;
  clone_network(b, second, stage1_out, stage2_out);
  attach_all_outputs(b, stage2_out);
  b.set_issuer_order(first.issuer_order());
  b.set_name(first.name() + ">" + second.name());
  return b.build();
}

Network make_parallel(const Network& top, const Network& bottom) {
  const std::uint32_t v1 = top.input_width();
  const std::uint32_t w1 = top.output_width();
  NetworkBuilder b(v1 + bottom.input_width(), w1 + bottom.output_width());
  std::vector<Wire> top_in(v1);
  for (std::uint32_t i = 0; i < v1; ++i) top_in[i] = Wire{kNoNode, i};
  std::vector<Wire> bottom_in(bottom.input_width());
  for (std::uint32_t i = 0; i < bottom.input_width(); ++i) {
    bottom_in[i] = Wire{kNoNode, v1 + i};
  }
  std::vector<Wire> top_out;
  clone_network(b, top, top_in, top_out);
  std::vector<Wire> bottom_out;
  clone_network(b, bottom, bottom_in, bottom_out);
  for (std::uint32_t i = 0; i < w1; ++i) b.attach_output(top_out[i].node, top_out[i].port, i);
  for (std::uint32_t i = 0; i < bottom.output_width(); ++i) {
    b.attach_output(bottom_out[i].node, bottom_out[i].port, w1 + i);
  }
  b.set_name(top.name() + "|" + bottom.name());
  return b.build();
}

Network make_padded(const Network& base, std::uint32_t prefix_len) {
  NetworkBuilder b(base.input_width(), base.output_width());

  // Chains of 1-in/1-out pass-through nodes in front of each input. Tokens
  // traversing them "simply proceed to the next balancer" (Cor 3.12); the
  // point is purely to add h(k-2) links of timing padding.
  std::vector<Wire> chain_end(base.input_width());
  for (std::uint32_t i = 0; i < base.input_width(); ++i) {
    Wire cur{kNoNode, i};
    for (std::uint32_t p = 0; p < prefix_len; ++p) {
      const NodeId id = b.add_node(1, 1);
      link(b, cur, id, 0);
      cur = Wire{id, 0};
    }
    chain_end[i] = cur;
  }

  // Clone the base graph. Base node n maps to clone node map[n].
  std::vector<NodeId> map(base.node_count());
  for (NodeId n = 0; n < base.node_count(); ++n)
    map[n] = b.add_node(base.node(n).fan_in, base.node(n).fan_out);
  for (NodeId n = 0; n < base.node_count(); ++n) {
    const Node& node = base.node(n);
    for (std::uint32_t p = 0; p < node.fan_in; ++p) {
      const InLink& src = node.in[p];
      if (src.node == kNoNode) {
        link(b, chain_end[src.port], map[n], p);
      } else {
        b.connect(map[src.node], src.port, map[n], p);
      }
    }
  }
  for (std::uint32_t i = 0; i < base.output_width(); ++i) {
    const InLink& src = base.outputs()[i];
    b.attach_output(map[src.node], src.port, i);
  }
  b.set_issuer_order(base.issuer_order());
  b.set_name("Padded[" + std::to_string(prefix_len) + "]+" + base.name());
  return b.build();
}

}  // namespace cnet::topo
