// Balancing-network topology: the static wiring diagram shared by all three
// execution backends (sim, psim, rt).
//
// Model (paper §2): a balancing network is an acyclic wiring of balancing
// nodes. Each node has `fan_in` ordered input ports and `fan_out` ordered
// output ports and maintains the step property on its outputs; tokens are
// routed to output ports round-robin (token t leaves on port t mod fan_out),
// which realizes the step property and matches the toggle-bit implementation
// for 2x2 balancers. The network has `v` external input ports and `w`
// external output ports; output port Y_i feeds an atomic counter handing out
// values i, i+w, i+2w, ...
//
// A topo::Network is immutable once built; construction goes through
// NetworkBuilder, which validates the wiring (everything connected exactly
// once, acyclic) and precomputes the layer structure used by the uniformity
// analysis (Def 2.1) and by the simulators.
//
// Naming note: cnet::topo is the balancing-network wiring diagram — the
// math object. The *process* layout (which OS processes share which
// shared-memory objects) is the separate cnet::deploy layer
// (deploy/counter_deploy.h, docs/DEPLOY.md); a deployment executes one
// topo::Network whose compiled state lives in a shm::Workspace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cnet::topo {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffffu;

/// Where a node's output port sends tokens.
struct OutLink {
  NodeId node = kNoNode;    ///< kNoNode => network output
  std::uint32_t port = 0;   ///< input port of `node`, or network output index
};

/// What feeds a node's input port.
struct InLink {
  NodeId node = kNoNode;    ///< kNoNode => network input
  std::uint32_t port = 0;   ///< output port of `node`, or network input index
};

struct Node {
  std::uint32_t fan_in = 0;
  std::uint32_t fan_out = 0;
  std::vector<InLink> in;    ///< size fan_in
  std::vector<OutLink> out;  ///< size fan_out
  std::uint32_t layer = 0;   ///< 1-based distance from the inputs (layer 1 = input nodes)

  bool is_pass_through() const { return fan_in == 1 && fan_out == 1; }
};

class Network {
 public:
  std::uint32_t input_width() const { return input_width_; }
  std::uint32_t output_width() const { return output_width_; }
  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Node+port behind each network input / in front of each network output.
  const std::vector<OutLink>& inputs() const { return inputs_; }
  const std::vector<InLink>& outputs() const { return outputs_; }

  /// Depth per the paper: number of links on any input->counter path. For a
  /// uniform network this equals the number of node layers. For non-uniform
  /// networks this is the maximum over paths.
  std::uint32_t depth() const { return depth_; }

  /// True iff the network satisfies Def 2.1: every node lies on an
  /// input->output path (guaranteed by builder validation) and all
  /// input->output paths have equal length.
  bool is_uniform() const { return uniform_; }

  /// Node ids grouped by layer; layers()[i] is layer i+1.
  const std::vector<std::vector<NodeId>>& layers() const { return layers_; }

  /// The network input issuer `issuer` enters at: issuer_order()[issuer mod
  /// input_width]. Every live path (rt, mp, deploy tiles) enters through
  /// it, so concurrent issuers 0, 1, 2, ... enter where their tokens meet as
  /// late as the wiring allows: each shared balancer is a contended cache
  /// line, a private one is not. make_bitonic sets the bit-reversed order,
  /// so issuers 0..2^k-1 enter 2^k disjoint Bitonic[w/2^k] blocks and first
  /// meet in the mergers. make_padded and make_serial keep their base's (the
  /// first stage's) order. Every other builder keeps the identity: Block[w]'s
  /// first layer pairs input i with w-1-i, so on Periodic[w] inputs 0..3
  /// already stay apart longer than bit reversal would keep them. The
  /// simulated executors (sim, psim, sched scripts) keep `p mod w`; their
  /// virtual time has no cache lines to share.
  std::uint32_t issuer_input(std::uint32_t issuer) const {
    return issuer_order_[issuer % input_width_];
  }
  /// The permutation of [0, input_width) behind issuer_input().
  const std::vector<std::uint32_t>& issuer_order() const { return issuer_order_; }

  /// Human-readable one-line summary, e.g. "Bitonic[32] depth=15 nodes=240".
  const std::string& name() const { return name_; }

 private:
  friend class NetworkBuilder;
  Network() = default;

  std::uint32_t input_width_ = 0;
  std::uint32_t output_width_ = 0;
  std::vector<Node> nodes_;
  std::vector<OutLink> inputs_;
  std::vector<InLink> outputs_;
  std::vector<std::vector<NodeId>> layers_;
  std::vector<std::uint32_t> issuer_order_;
  std::uint32_t depth_ = 0;
  bool uniform_ = false;
  std::string name_;
};

/// Incremental construction with full validation in build().
class NetworkBuilder {
 public:
  NetworkBuilder(std::uint32_t input_width, std::uint32_t output_width);

  /// Adds a balancing node; ports start unconnected.
  NodeId add_node(std::uint32_t fan_in, std::uint32_t fan_out);

  /// Wire node `from`'s output port to node `to`'s input port.
  void connect(NodeId from, std::uint32_t out_port, NodeId to, std::uint32_t in_port);

  /// Attach network input `input_idx` to a node input port.
  void attach_input(std::uint32_t input_idx, NodeId node, std::uint32_t in_port);

  /// Attach a node output port to network output `output_idx` (its counter).
  void attach_output(NodeId node, std::uint32_t out_port, std::uint32_t output_idx);

  void set_name(std::string name) { name_ = std::move(name); }

  /// The entry order behind Network::issuer_input(); the identity unless set.
  void set_issuer_order(std::vector<std::uint32_t> order) { issuer_order_ = std::move(order); }

  /// Validates wiring completeness and acyclicity, computes layers/depth/
  /// uniformity, and checks that the issuer order is a permutation of the
  /// inputs. Aborts (CNET_CHECK) on malformed wiring: builders are
  /// library code, so malformed wiring is a bug, not user error.
  Network build();

 private:
  Network net_;
  std::string name_;
  std::vector<std::uint32_t> issuer_order_;
  std::vector<bool> input_attached_;
  std::vector<bool> output_attached_;
};

/// Sequential routing state for one network: used to compute quiescent token
/// distributions (which are schedule-independent for balancing networks) and
/// as the reference implementation the concurrent backends are tested
/// against.
class SequentialRouter {
 public:
  /// Keeps a pointer to `net`: the network must outlive the router.
  explicit SequentialRouter(const Network& net);

  /// Injects one token at network input `input_idx`; returns the network
  /// output index it exits on.
  std::uint32_t route_token(std::uint32_t input_idx);

  /// Injects one token and returns the value its output counter assigns.
  std::uint64_t next_value(std::uint32_t input_idx);

  /// Tokens that have exited on each network output so far.
  const std::vector<std::uint64_t>& output_counts() const { return exits_; }

  void reset();

 private:
  const Network* net_;
  std::vector<std::uint64_t> node_tokens_;  ///< tokens that traversed each node
  std::vector<std::uint64_t> exits_;
};

}  // namespace cnet::topo
