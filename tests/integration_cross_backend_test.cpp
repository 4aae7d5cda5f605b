// Cross-backend integration: the same topology executed by the sequential
// router, the event-level simulator, the multiprocessor simulator, and the
// real-thread runtime must agree on the values handed out — the topology is
// the single source of truth and every backend is just a scheduler for it.
#include <gtest/gtest.h>

#include <vector>

#include "psim/machine.h"
#include "rt/network_counter.h"
#include "sim/simulator.h"
#include "topo/builders.h"

namespace cnet {
namespace {

std::vector<std::uint64_t> sequential_values(const topo::Network& net, int count) {
  topo::SequentialRouter router(net);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < count; ++i) {
    values.push_back(router.next_value(static_cast<std::uint32_t>(i) % net.input_width()));
  }
  return values;
}

std::vector<std::uint64_t> sim_values(const topo::Network& net, int count) {
  sim::FixedDelay delays(1.0);
  sim::Simulator simulator(net, delays);
  for (int i = 0; i < count; ++i) {
    // Far enough apart that tokens never overlap: a sequential execution.
    simulator.inject(static_cast<std::uint32_t>(i) % net.input_width(), i * 1000.0);
  }
  simulator.run();
  std::vector<std::uint64_t> values;
  for (const auto& tok : simulator.tokens()) values.push_back(tok.value);
  return values;
}

std::vector<std::uint64_t> psim_values(const topo::Network& net, int count) {
  // One processor performing `count` ops is a sequential execution, but the
  // processor enters through input 0 every time — match that with the
  // reference by using a single-input pattern.
  psim::MachineParams params;
  params.processors = 1;
  params.total_ops = static_cast<std::uint64_t>(count);
  const psim::MachineResult result = psim::run_workload(net, params);
  std::vector<std::uint64_t> values;
  for (const auto& op : result.history) values.push_back(op.value);
  return values;
}

std::vector<std::uint64_t> rt_values(const topo::Network& net, int count) {
  rt::NetworkCounter counter(net);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < count; ++i) {
    values.push_back(counter.next(0, static_cast<std::uint32_t>(i) % net.input_width()));
  }
  return values;
}

class CrossBackend : public ::testing::TestWithParam<int> {};

TEST_P(CrossBackend, SequentialExecutionsAgreeEverywhere) {
  const int which = GetParam();
  const topo::Network net = which == 0   ? topo::make_bitonic(8)
                            : which == 1 ? topo::make_periodic(8)
                            : which == 2 ? topo::make_counting_tree(16)
                                         : topo::make_padded(topo::make_bitonic(4), 5);
  const int count = 200;
  const auto reference = sequential_values(net, count);
  EXPECT_EQ(sim_values(net, count), reference);
  EXPECT_EQ(rt_values(net, count), reference);
}

INSTANTIATE_TEST_SUITE_P(Topologies, CrossBackend, ::testing::Range(0, 4));

TEST(CrossBackend, PsimSingleProcessorMatchesSingleInputReference) {
  const topo::Network net = topo::make_bitonic(8);
  const int count = 100;
  // Reference: all tokens through input 0 (what a single psim processor
  // does).
  topo::SequentialRouter router(net);
  std::vector<std::uint64_t> reference;
  for (int i = 0; i < count; ++i) reference.push_back(router.next_value(0));
  EXPECT_EQ(psim_values(net, count), reference);
}

TEST(CrossBackend, QuiescentDistributionIdenticalAcrossBackends) {
  // Under heavy concurrency the value *order* differs, but the per-output
  // exit counts are schedule-independent.
  const topo::Network net = topo::make_bitonic(16);
  const int count = 1000;

  topo::SequentialRouter router(net);
  for (int i = 0; i < count; ++i) router.route_token(static_cast<std::uint32_t>(i) % 16);

  sim::UniformDelay delays(1.0, 7.0);
  sim::Simulator simulator(net, delays, 5);
  for (int i = 0; i < count; ++i) simulator.inject(static_cast<std::uint32_t>(i) % 16, i * 0.01);
  simulator.run();

  EXPECT_EQ(simulator.output_counts(), router.output_counts());
}

}  // namespace
}  // namespace cnet
