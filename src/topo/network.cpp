#include "topo/network.h"

#include <algorithm>

#include "util/assert.h"

namespace cnet::topo {

NetworkBuilder::NetworkBuilder(std::uint32_t input_width, std::uint32_t output_width) {
  CNET_CHECK(input_width > 0);
  CNET_CHECK(output_width > 0);
  net_.input_width_ = input_width;
  net_.output_width_ = output_width;
  net_.inputs_.resize(input_width);
  net_.outputs_.resize(output_width);
  input_attached_.assign(input_width, false);
  output_attached_.assign(output_width, false);
}

NodeId NetworkBuilder::add_node(std::uint32_t fan_in, std::uint32_t fan_out) {
  CNET_CHECK(fan_in > 0 && fan_out > 0);
  Node node;
  node.fan_in = fan_in;
  node.fan_out = fan_out;
  node.in.assign(fan_in, InLink{});
  node.out.assign(fan_out, OutLink{});
  // Sentinel "unconnected" marker: port index max. kNoNode means "network
  // boundary" once built, so we use port == 0xffffffff to detect gaps.
  for (auto& link : node.in) link.port = 0xffffffffu;
  for (auto& link : node.out) link.port = 0xffffffffu;
  net_.nodes_.push_back(std::move(node));
  return static_cast<NodeId>(net_.nodes_.size() - 1);
}

void NetworkBuilder::connect(NodeId from, std::uint32_t out_port, NodeId to,
                             std::uint32_t in_port) {
  CNET_CHECK(from < net_.nodes_.size() && to < net_.nodes_.size());
  Node& src = net_.nodes_[from];
  Node& dst = net_.nodes_[to];
  CNET_CHECK(out_port < src.fan_out && in_port < dst.fan_in);
  CNET_CHECK_MSG(src.out[out_port].port == 0xffffffffu, "output port already wired");
  CNET_CHECK_MSG(dst.in[in_port].port == 0xffffffffu, "input port already wired");
  src.out[out_port] = OutLink{to, in_port};
  dst.in[in_port] = InLink{from, out_port};
}

void NetworkBuilder::attach_input(std::uint32_t input_idx, NodeId node, std::uint32_t in_port) {
  CNET_CHECK(input_idx < net_.input_width_);
  CNET_CHECK(node < net_.nodes_.size());
  Node& dst = net_.nodes_[node];
  CNET_CHECK(in_port < dst.fan_in);
  CNET_CHECK_MSG(!input_attached_[input_idx], "network input already attached");
  CNET_CHECK_MSG(dst.in[in_port].port == 0xffffffffu, "input port already wired");
  net_.inputs_[input_idx] = OutLink{node, in_port};
  dst.in[in_port] = InLink{kNoNode, input_idx};
  input_attached_[input_idx] = true;
}

void NetworkBuilder::attach_output(NodeId node, std::uint32_t out_port,
                                   std::uint32_t output_idx) {
  CNET_CHECK(output_idx < net_.output_width_);
  CNET_CHECK(node < net_.nodes_.size());
  Node& src = net_.nodes_[node];
  CNET_CHECK(out_port < src.fan_out);
  CNET_CHECK_MSG(!output_attached_[output_idx], "network output already attached");
  CNET_CHECK_MSG(src.out[out_port].port == 0xffffffffu, "output port already wired");
  net_.outputs_[output_idx] = InLink{node, out_port};
  src.out[out_port] = OutLink{kNoNode, output_idx};
  output_attached_[output_idx] = true;
}

Network NetworkBuilder::build() {
  // Completeness: every boundary and every node port wired exactly once.
  for (std::uint32_t i = 0; i < net_.input_width_; ++i)
    CNET_CHECK_MSG(input_attached_[i], "unattached network input");
  for (std::uint32_t i = 0; i < net_.output_width_; ++i)
    CNET_CHECK_MSG(output_attached_[i], "unattached network output");
  for (const Node& node : net_.nodes_) {
    for (const auto& link : node.in) CNET_CHECK_MSG(link.port != 0xffffffffu, "dangling input");
    for (const auto& link : node.out)
      CNET_CHECK_MSG(link.port != 0xffffffffu, "dangling output");
  }

  // Layering via Kahn's algorithm; also detects cycles. layer(node) = 1 +
  // max(layer of nodes feeding it), with network inputs contributing layer 0.
  const std::size_t n = net_.nodes_.size();
  std::vector<std::uint32_t> pending(n);
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < n; ++id) {
    std::uint32_t internal = 0;
    for (const auto& link : net_.nodes_[id].in)
      if (link.node != kNoNode) ++internal;
    pending[id] = internal;
    if (internal == 0) ready.push_back(id);
  }
  std::size_t processed = 0;
  std::vector<std::uint32_t> layer(n, 0);
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    ++processed;
    std::uint32_t lay = 1;
    for (const auto& link : net_.nodes_[id].in)
      if (link.node != kNoNode) lay = std::max(lay, layer[link.node] + 1);
    layer[id] = lay;
    for (const auto& link : net_.nodes_[id].out)
      if (link.node != kNoNode && --pending[link.node] == 0) ready.push_back(link.node);
  }
  CNET_CHECK_MSG(processed == n, "network wiring contains a cycle");

  std::uint32_t depth = 0;
  for (NodeId id = 0; id < n; ++id) {
    net_.nodes_[id].layer = layer[id];
    depth = std::max(depth, layer[id]);
  }
  net_.depth_ = depth;
  net_.layers_.assign(depth, {});
  for (NodeId id = 0; id < n; ++id) net_.layers_[layer[id] - 1].push_back(id);

  // Uniformity (Def 2.1): all in-links of a layer-L node come from layer L-1
  // (network inputs are layer 0), and every network output is fed from the
  // deepest layer. Every node lies on an input->output path because all
  // ports are wired and the graph is acyclic.
  bool uniform = true;
  for (NodeId id = 0; id < n && uniform; ++id) {
    for (const auto& link : net_.nodes_[id].in) {
      const std::uint32_t src_layer = link.node == kNoNode ? 0 : layer[link.node];
      if (src_layer != net_.nodes_[id].layer - 1) {
        uniform = false;
        break;
      }
    }
  }
  for (const auto& link : net_.outputs_)
    if (layer[link.node] != depth) uniform = false;
  net_.uniform_ = uniform;

  // Issuer order: a permutation of the inputs, the identity by default.
  if (issuer_order_.empty()) {
    issuer_order_.resize(net_.input_width_);
    for (std::uint32_t i = 0; i < net_.input_width_; ++i) issuer_order_[i] = i;
  }
  CNET_CHECK_MSG(issuer_order_.size() == net_.input_width_,
                 "issuer order must list every network input");
  std::vector<bool> entered(net_.input_width_, false);
  for (const std::uint32_t input : issuer_order_) {
    CNET_CHECK_MSG(input < net_.input_width_ && !entered[input],
                   "issuer order must be a permutation of the network inputs");
    entered[input] = true;
  }
  net_.issuer_order_ = std::move(issuer_order_);
  net_.name_ = name_.empty() ? "network" : name_;
  return std::move(net_);
}

SequentialRouter::SequentialRouter(const Network& net)
    : net_(&net), node_tokens_(net.node_count(), 0), exits_(net.output_width(), 0) {}

std::uint32_t SequentialRouter::route_token(std::uint32_t input_idx) {
  CNET_CHECK(input_idx < net_->input_width());
  OutLink at = net_->inputs()[input_idx];
  while (at.node != kNoNode) {
    const Node& node = net_->node(at.node);
    const std::uint64_t t = node_tokens_[at.node]++;
    at = node.out[t % node.fan_out];
  }
  ++exits_[at.port];
  return at.port;
}

std::uint64_t SequentialRouter::next_value(std::uint32_t input_idx) {
  const std::uint32_t out = route_token(input_idx);
  // exits_ was already incremented; the counter on output Y_i hands out
  // i, i+w, i+2w, ... so the a-th exiting token (a >= 1) gets i + (a-1)*w.
  return out + (exits_[out] - 1) * net_->output_width();
}

void SequentialRouter::reset() {
  std::fill(node_tokens_.begin(), node_tokens_.end(), 0);
  std::fill(exits_.begin(), exits_.end(), 0);
}

}  // namespace cnet::topo
