#include "psim/machine.h"

#include <gtest/gtest.h>

#include <tuple>

#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/backend_metrics.h"
#include "topo/builders.h"

namespace cnet::psim {
namespace {

MachineParams base_params(std::uint32_t n, std::uint64_t ops) {
  MachineParams p;
  p.processors = n;
  p.total_ops = ops;
  p.delayed_fraction = 0.0;
  p.wait_cycles = 0;
  p.seed = 7;
  return p;
}

TEST(Machine, SingleProcessorCountsSequentially) {
  const topo::Network net = topo::make_bitonic(8);
  const MachineResult result = run_workload(net, base_params(1, 50));
  ASSERT_EQ(result.history.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(result.history[i].value, i);
  EXPECT_TRUE(result.analysis.linearizable());
}

class MachineGrid
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t, bool>> {};

TEST_P(MachineGrid, CountingIsAlwaysCorrect) {
  const auto [n, wait, diffraction] = GetParam();
  const topo::Network net =
      diffraction ? topo::make_counting_tree(16) : topo::make_bitonic(16);
  MachineParams p = base_params(n, 1500);
  p.delayed_fraction = 0.5;
  p.wait_cycles = wait;
  p.use_diffraction = diffraction;
  const MachineResult result = run_workload(net, p);
  EXPECT_GE(result.history.size(), 1500u);
  std::string msg;
  EXPECT_TRUE(lin::values_form_range(result.history, &msg)) << msg;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachineGrid,
    ::testing::Combine(::testing::Values<std::uint32_t>(1, 4, 16, 64),
                       ::testing::Values<std::uint64_t>(0, 100, 5000),
                       ::testing::Bool()));

TEST(Machine, DeterministicGivenSeed) {
  const topo::Network net = topo::make_bitonic(16);
  MachineParams p = base_params(32, 1000);
  p.delayed_fraction = 0.25;
  p.wait_cycles = 1000;
  const MachineResult a = run_workload(net, p);
  const MachineResult b = run_workload(net, p);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].value, b.history[i].value);
    EXPECT_EQ(a.history[i].start, b.history[i].start);
    EXPECT_EQ(a.history[i].end, b.history[i].end);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
}

TEST(Machine, SeedChangesSchedule) {
  const topo::Network net = topo::make_bitonic(16);
  MachineParams p = base_params(32, 1000);
  p.delayed_fraction = 0.25;
  p.wait_cycles = 1000;
  const MachineResult a = run_workload(net, p);
  p.seed = 8;
  const MachineResult b = run_workload(net, p);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Machine, NoDelaysNoViolations) {
  // §5 control: W = 0 (and F = 0) showed no violations for the bitonic
  // network under MCS balancers.
  const topo::Network net = topo::make_bitonic(32);
  for (std::uint32_t n : {4u, 32u, 128u}) {
    MachineParams p = base_params(n, 3000);
    const MachineResult result = run_workload(net, p);
    EXPECT_TRUE(result.analysis.linearizable()) << "n=" << n;
  }
}

TEST(Machine, AllDelayedNoViolations) {
  // §5 control: F = 100% — uniformly slow processors keep c2/c1 ~ 1.
  const topo::Network net = topo::make_bitonic(32);
  MachineParams p = base_params(64, 2000);
  p.delayed_fraction = 1.0;
  p.wait_cycles = 10000;
  const MachineResult result = run_workload(net, p);
  EXPECT_TRUE(result.analysis.linearizable());
}

TEST(Machine, BigDelaysCauseViolations) {
  // The headline effect: F = 50%, W = 10000 drives avg c2/c1 far above 2
  // and non-linearizable operations appear.
  const topo::Network net = topo::make_bitonic(32);
  MachineParams p = base_params(16, 5000);
  p.delayed_fraction = 0.5;
  p.wait_cycles = 10000;
  const MachineResult result = run_workload(net, p);
  EXPECT_GT(result.avg_c2_over_c1, 2.0);
  EXPECT_GT(result.analysis.nonlinearizable_ops, 0u);
}

TEST(Machine, TreeViolatesMoreThanBitonicAtScale) {
  // "Diffracting trees have a higher fraction of violations because of
  // their lower depth" (§5) — checked at a concurrency level where both
  // structures are past the c2/c1 = 2 threshold.
  MachineParams p = base_params(64, 5000);
  p.delayed_fraction = 0.5;
  p.wait_cycles = 10000;
  const MachineResult bitonic = run_workload(topo::make_bitonic(32), p);
  p.use_diffraction = true;
  const MachineResult tree = run_workload(topo::make_counting_tree(32), p);
  EXPECT_GT(tree.analysis.fraction(), bitonic.analysis.fraction());
}

TEST(Machine, TogAndRatioReported) {
  const topo::Network net = topo::make_bitonic(32);
  MachineParams p = base_params(8, 1000);
  p.delayed_fraction = 0.25;
  p.wait_cycles = 1000;
  const MachineResult result = run_workload(net, p);
  EXPECT_GT(result.avg_tog, 0.0);
  EXPECT_NEAR(result.avg_c2_over_c1, (result.avg_tog + 1000.0) / result.avg_tog, 1e-9);
  EXPECT_GT(result.toggles, 0u);
  EXPECT_GT(result.memory_accesses, 0u);
  EXPECT_GT(result.events, 0u);
}

TEST(Machine, OpLatencyStatsAreConsistent) {
  const topo::Network net = topo::make_bitonic(16);
  MachineParams p = base_params(8, 1000);
  p.delayed_fraction = 0.5;
  p.wait_cycles = 2000;
  const MachineResult result = run_workload(net, p);
  EXPECT_EQ(result.op_latency.count(), result.history.size());
  // A traversal costs at least one toggle critical section per layer.
  EXPECT_GE(result.op_latency.min(), static_cast<double>(net.depth()));
  // Delayed ops pay ~depth * W more than fast ones.
  EXPECT_GE(result.op_latency.max(),
            result.op_latency.min() + 2000.0 * net.depth());
  EXPECT_GE(result.op_latency.mean(), result.op_latency.min());
}

TEST(Machine, LayerStatsCoverAllLayers) {
  const topo::Network net = topo::make_counting_tree(16);
  MachineParams p = base_params(32, 2000);
  p.use_diffraction = true;
  const MachineResult result = run_workload(net, p);
  ASSERT_EQ(result.layers.size(), net.depth());
  std::uint64_t toggles = 0;
  std::uint64_t diffractions = 0;
  for (const auto& layer : result.layers) {
    toggles += layer.toggles;
    diffractions += layer.diffractions;
  }
  EXPECT_EQ(toggles, result.toggles);
  EXPECT_EQ(diffractions, result.diffractions);
  EXPECT_GT(result.diffractions, 0u);  // 32 procs on a tree: pairing happens
}

TEST(Machine, RandomWaitControlRunsClean) {
  // §5: "every token waits a random number of cycles between 0 and W" was
  // observed completely linearizable on the bitonic network.
  const topo::Network net = topo::make_bitonic(32);
  MachineParams p = base_params(32, 3000);
  p.random_wait = true;
  p.wait_cycles = 10000;
  const MachineResult result = run_workload(net, p);
  EXPECT_TRUE(result.analysis.linearizable());
}

TEST(Machine, BankContentionSlowsButStaysCorrect) {
  const topo::Network net = topo::make_bitonic(16);
  MachineParams p = base_params(64, 2000);
  const MachineResult baseline = run_workload(net, p);
  p.mem.banks = 8;
  p.mem.bank_occupancy = 8;
  const MachineResult contended = run_workload(net, p);
  std::string msg;
  EXPECT_TRUE(lin::values_form_range(contended.history, &msg)) << msg;
  EXPECT_GT(contended.makespan, baseline.makespan);
  EXPECT_GT(contended.avg_tog, baseline.avg_tog);
}

TEST(Machine, PaddedNetworkRunsAndCounts) {
  const topo::Network base = topo::make_bitonic(8);
  const topo::Network padded = topo::make_padded(base, 6);
  MachineParams p = base_params(16, 1000);
  p.delayed_fraction = 0.5;
  p.wait_cycles = 500;
  const MachineResult result = run_workload(padded, p);
  std::string msg;
  EXPECT_TRUE(lin::values_form_range(result.history, &msg)) << msg;
}

TEST(Machine, MetricsMirrorResultCounters) {
  const topo::Network net = topo::make_counting_tree(16);
  obs::PsimMetrics metrics;
  MachineParams p = base_params(32, 2000);
  p.use_diffraction = true;
  p.metrics = &metrics;
  const MachineResult result = run_workload(net, p);

  EXPECT_EQ(metrics.ops.value(), result.history.size());
  EXPECT_EQ(metrics.toggles.value(), result.toggles);
  EXPECT_EQ(metrics.diffractions.value(), result.diffractions);
  EXPECT_EQ(metrics.events.value(), result.events);
  EXPECT_EQ(metrics.op_latency_cycles.total(), result.history.size());
  // Every operation is depth hops, each recorded once.
  EXPECT_EQ(metrics.hop_latency_cycles.total(), result.history.size() * net.depth());
}

TEST(Machine, InstrumentationDoesNotPerturbTheSimulation) {
  // A recorded run must be cycle-for-cycle identical to a bare one:
  // observation never feeds back into the engine.
  const topo::Network net = topo::make_bitonic(8);
  MachineParams p = base_params(16, 1500);
  p.delayed_fraction = 0.25;
  p.wait_cycles = 1000;
  const MachineResult bare = run_workload(net, p);

  obs::PsimMetrics metrics;
  p.metrics = &metrics;
  const MachineResult traced = run_workload(net, p);

  EXPECT_EQ(traced.makespan, bare.makespan);
  EXPECT_EQ(traced.events, bare.events);
  ASSERT_EQ(traced.history.size(), bare.history.size());
  for (std::size_t i = 0; i < bare.history.size(); ++i) {
    EXPECT_EQ(traced.history[i].start, bare.history[i].start);
    EXPECT_EQ(traced.history[i].end, bare.history[i].end);
    EXPECT_EQ(traced.history[i].value, bare.history[i].value);
  }
  EXPECT_EQ(metrics.hop_latency_cycles.total(), traced.history.size() * net.depth());
  // The paper's estimate and the histogram estimate agree on whether the
  // run was skewed: F = 25% at W = 1000 is far above the Cor 3.9 threshold.
  EXPECT_GT(metrics.c2c1_estimate(), 2.0);
}

// --- fault plans as cycle debits ------------------------------------------

TEST(MachineFault, StallPlanReplaysIdenticallyAndSlowsTheRun) {
  const topo::Network net = topo::make_bitonic(8);
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_fault_plan("stall:0.5:2000:2,seed:11", &plan, nullptr));
  MachineParams p = base_params(8, 400);

  const MachineResult bare = run_workload(net, p);
  fault::Injector a(plan);
  p.fault = &a;
  const MachineResult first = run_workload(net, p);
  fault::Injector b(plan);
  p.fault = &b;
  const MachineResult second = run_workload(net, p);

  // Deterministic: the single-threaded engine draws every decision in
  // (cycle, seq) firing order, so one (plan, seed) yields one schedule.
  EXPECT_EQ(first.makespan, second.makespan);
  ASSERT_EQ(first.history.size(), second.history.size());
  for (std::size_t i = 0; i < first.history.size(); ++i) {
    EXPECT_EQ(first.history[i].start, second.history[i].start);
    EXPECT_EQ(first.history[i].end, second.history[i].end);
    EXPECT_EQ(first.history[i].value, second.history[i].value);
    EXPECT_EQ(first.history[i].actor, second.history[i].actor);
  }
  EXPECT_EQ(a.stats().stalls, b.stats().stalls);
  EXPECT_GT(a.stats().stalls, 0u);
  // The debits are real simulated time, and the run still completes (the
  // closed loop may overshoot the target while stalled tokens drain).
  EXPECT_GT(first.makespan, bare.makespan);
  EXPECT_GE(first.history.size(), 400u);
}

TEST(MachineFault, DelayPlanChargesDeliveryDebitsDeterministically) {
  const topo::Network net = topo::make_counting_tree(8);
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_fault_plan("delay:0.25:5000,seed:3", &plan, nullptr));
  MachineParams p = base_params(4, 200);
  fault::Injector a(plan);
  p.fault = &a;
  const MachineResult first = run_workload(net, p);
  fault::Injector b(plan);
  p.fault = &b;
  const MachineResult second = run_workload(net, p);
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_GT(a.stats().delays, 0u);
  EXPECT_EQ(a.stats().delays, b.stats().delays);
  ASSERT_EQ(first.history.size(), second.history.size());
  for (std::size_t i = 0; i < first.history.size(); ++i) {
    EXPECT_EQ(first.history[i].value, second.history[i].value);
    EXPECT_EQ(first.history[i].end, second.history[i].end);
  }
}

}  // namespace
}  // namespace cnet::psim
