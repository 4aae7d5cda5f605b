#include "core/counting_network.h"

#include "theory/bounds.h"
#include "util/assert.h"

namespace cnet {
namespace {

rt::CounterOptions options_for(const SharedCounter::Config& config) {
  rt::CounterOptions options;
  options.mode =
      config.mcs_balancers ? rt::BalancerMode::kMcsLocked : rt::BalancerMode::kFetchAdd;
  options.diffraction = config.diffraction && config.topology == Topology::kTree;
  options.max_threads = config.max_threads;
  options.metrics = config.metrics;
  return options;
}

topo::Network network_for(const SharedCounter::Config& config) {
  topo::Network net = make_network(config.topology, config.width);
  if (config.linearizable_for_ratio > 2) {
    // Cor 3.12: h*(k-2) pass-through nodes in front of every input keep the
    // network linearizable for c2 < k*c1.
    const std::uint32_t prefix =
        theory::padding_prefix_length(net.depth(), config.linearizable_for_ratio);
    net = topo::make_padded(net, prefix);
  }
  return net;
}

}  // namespace

Version version() { return Version{}; }

std::string version_string() {
  const Version v = version();
  return std::to_string(v.major) + "." + std::to_string(v.minor) + "." + std::to_string(v.patch);
}

topo::Network make_network(Topology topology, std::uint32_t width) {
  switch (topology) {
    case Topology::kBitonic:
      return topo::make_bitonic(width);
    case Topology::kPeriodic:
      return topo::make_periodic(width);
    case Topology::kTree:
      return topo::make_counting_tree(width);
  }
  CNET_CHECK_MSG(false, "unknown topology");
}

SharedCounter::SharedCounter(const Config& config)
    : counter_(network_for(config), options_for(config)) {}

std::uint64_t SharedCounter::next(std::uint32_t thread_id) {
  return counter_.next(thread_id, thread_id % counter_.network().input_width());
}

void SharedCounter::next_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) {
  counter_.next_batch(thread_id, thread_id % counter_.network().input_width(), out);
}

}  // namespace cnet
