// CountingBackend adapters: every family constructs from a spec string,
// counts correctly, and reports through the uniform interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "run/backend.h"
#include "run/runner.h"
#include "sched/trace.h"
#include "topo/builders.h"

namespace cnet::run {
namespace {

std::unique_ptr<CountingBackend> backend_ok(const std::string& text) {
  std::string error;
  auto backend = make_backend(text, &error);
  EXPECT_NE(backend, nullptr) << text << " -> " << error;
  return backend;
}

TEST(RunBackend, FactoryRejectsBadSpecsWithDiagnostics) {
  std::string error;
  EXPECT_EQ(make_backend("rt:bitonic:0", &error), nullptr);
  EXPECT_NE(error.find("rt:bitonic:0"), std::string::npos);
  EXPECT_EQ(make_backend("quantum:bitonic:8", &error), nullptr);
  EXPECT_NE(error.find("unknown backend family"), std::string::npos);
}

TEST(RunBackend, RtCountsSequentially) {
  auto backend = backend_ok("rt:bitonic:8");
  EXPECT_TRUE(backend->live());
  EXPECT_STREQ(backend->time_unit(), "ns");
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 64; ++i) values.push_back(backend->count(0));
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(RunBackend, RtBatchAndDelayedMatchPlainCounting) {
  auto backend = backend_ok("rt:bitonic:8");
  std::vector<std::uint64_t> values(10);
  backend->count_batch(0, values);
  for (int i = 0; i < 6; ++i) values.push_back(backend->count_delayed(0, 100));
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(RunBackend, RtHonoursMetricsOption) {
  auto bare = backend_ok("rt:bitonic:8");
  EXPECT_EQ(static_cast<RtBackend&>(*bare).metrics(), nullptr);
  auto observed = backend_ok("rt:bitonic:8?metrics");
  auto& rt_observed = static_cast<RtBackend&>(*observed);
  ASSERT_NE(rt_observed.metrics(), nullptr);
  (void)observed->count(0);
  EXPECT_EQ(rt_observed.metrics()->tokens.value(), 1u);
}

TEST(RunBackend, RtExternalMetricsSinkIsBorrowed) {
  obs::CounterMetrics metrics;
  metrics.sample_period = 1;
  RtBackend backend(parse_spec_or_die("rt:bitonic:8"), &metrics);
  (void)backend.count(0);
  EXPECT_EQ(metrics.tokens.value(), 1u);
  EXPECT_EQ(backend.metrics(), &metrics);
}

TEST(RunBackend, MpBatchAndDelayedMatchPlainCounting) {
  auto backend = backend_ok("mp:bitonic:8?actors=2");
  std::vector<std::uint64_t> values(10);
  backend->count_batch(0, values);  // one wave, values ascending
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
  for (int i = 0; i < 6; ++i) values.push_back(backend->count_delayed(0, 100));
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(RunBackend, MpCountsThroughActors) {
  auto backend = backend_ok("mp:bitonic:4?actors=2");
  EXPECT_TRUE(backend->live());
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 32; ++i) values.push_back(backend->count(static_cast<std::uint32_t>(i)));
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(RunBackend, EveryLiveBackendBeginsBatchesAndCollects) {
  // The issue-then-collect contract svc::Server serves every batch through,
  // driven through the base interface alone: rt claims the chunk with one
  // next_batch and hands back ready handles in ascending order, mp sends
  // one wave and hands back in-flight ones, which a bitonic network deals
  // values by its split rule rather than in slot order.
  for (const char* spec : {"rt:bitonic:8", "mp:bitonic:8"}) {
    SCOPED_TRACE(spec);
    const std::unique_ptr<CountingBackend> owned = backend_ok(spec);
    CountingBackend& backend = *owned;
    std::vector<CountingBackend::PendingCount> wave(12);
    backend.count_begin_batch(0, wave);
    std::vector<std::uint64_t> values;
    for (const CountingBackend::PendingCount& pending : wave) {
      values.push_back(backend.count_collect(pending));
    }
    if (owned->spec().family == Family::kRt) {
      EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
    }
    std::sort(values.begin(), values.end());
    for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
  }
  // A ready handle's op already completed, so no deadline can time it out.
  const std::unique_ptr<CountingBackend> rt = backend_ok("rt:bitonic:8");
  const CountingBackend::PendingCount ready = rt->count_begin(0, 0);
  EXPECT_EQ(ready.cell, nullptr);
  const CountingBackend::TimedCount timed =
      rt->count_collect_until(ready, std::chrono::steady_clock::time_point{});
  EXPECT_TRUE(timed.ok);
  EXPECT_EQ(timed.value, 0u);
}

TEST(RunBackend, LiveIssuersEnterAtTheirIssuerInput) {
  // A live backend's thread_id names the issuer, and so its input. The
  // recorder logs the wire each captured token entered on: issuers 0..3
  // on Bitonic[8] enter at 0, 4, 2, 6, on rt and on mp alike.
  for (const char* spec : {"rt:bitonic:8", "mp:bitonic:8"}) {
    SCOPED_TRACE(spec);
    const std::unique_ptr<CountingBackend> backend = backend_ok(spec);
    Workload workload;
    workload.threads = 4;
    workload.total_ops = 400;
    sched::Recorder recorder;
    const RunReport report = Runner().run(*backend, workload, nullptr, &recorder);
    ASSERT_TRUE(report.ok) << report.error;
    const sched::Trace trace = recorder.finish(report.history, spec, workload.to_string());
    ASSERT_EQ(trace.tokens.size(), workload.total_ops);
    std::map<std::uint32_t, std::set<std::uint32_t>> entered;  // actor -> inputs used
    for (const sched::TokenRecord& token : trace.tokens) entered[token.actor].insert(token.input);
    std::map<std::uint32_t, std::set<std::uint32_t>> expected;
    for (std::uint32_t t = 0; t < workload.threads; ++t) {
      expected[t] = {backend->network().issuer_input(t)};
    }
    EXPECT_EQ(entered, expected);
    EXPECT_EQ(expected[1], (std::set<std::uint32_t>{4}));
  }
}

TEST(RunBackend, RtUnhookedPathsEnterAtTheIssuerInput) {
  // count() and count_batch() run without a hook, so no recorder sees
  // their entry; the balancer visits do. Issuer 1 enters Bitonic[8] at
  // input 4, whose first-layer balancer alone may count the tokens.
  for (const std::size_t tokens : {1u, 6u}) {
    obs::CounterMetrics metrics;
    RtBackend backend(parse_spec_or_die("rt:bitonic:8"), &metrics);
    if (tokens == 1) {
      (void)backend.count(1);
    } else {
      std::vector<std::uint64_t> values(tokens);
      backend.count_batch(1, values);
    }
    const topo::Network& net = backend.network();
    const topo::NodeId entry = net.inputs()[net.issuer_input(1)].node;
    EXPECT_EQ(net.issuer_input(1), 4u);
    const std::vector<std::uint64_t> visits = metrics.balancer_visits.values();
    for (const topo::NodeId node : net.layers()[0]) {
      EXPECT_EQ(visits[node], node == entry ? tokens : 0u) << "node " << node;
    }
  }
}

TEST(RunBackend, SimSimulatesClosedLoop) {
  auto backend = backend_ok("sim:bitonic:8?c1=1&c2=2");
  EXPECT_FALSE(backend->live());
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 200;
  workload.seed = 3;
  const SimulatedRun run = backend->simulate(workload);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.history.size(), 200u);
  EXPECT_GT(run.makespan, 0.0);
  for (const auto& op : run.history) EXPECT_LT(op.start, op.end);
}

TEST(RunBackend, SimSimulatesOpenLoops) {
  Workload poisson;
  poisson.arrival = Arrival::kPoisson;
  poisson.total_ops = 300;
  poisson.rate = 2.0;
  poisson.seed = 11;
  const SimulatedRun poisson_run = backend_ok("sim:bitonic:8")->simulate(poisson);
  ASSERT_TRUE(poisson_run.ok) << poisson_run.error;
  EXPECT_EQ(poisson_run.history.size(), 300u);

  Workload burst;
  burst.arrival = Arrival::kBurst;
  burst.threads = 4;
  burst.total_ops = 100;
  burst.burst_size = 2;
  burst.burst_gap = 50.0;
  const SimulatedRun burst_run = backend_ok("sim:tree:8")->simulate(burst);
  ASSERT_TRUE(burst_run.ok) << burst_run.error;
  EXPECT_EQ(burst_run.history.size(), 100u);
}

TEST(RunBackend, SimRejectsDegenerateOpenLoopParameters) {
  Workload workload;
  workload.arrival = Arrival::kPoisson;
  workload.rate = 0.0;
  EXPECT_FALSE(backend_ok("sim:bitonic:8")->simulate(workload).ok);
  workload.rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(backend_ok("sim:bitonic:8")->simulate(workload).ok);
  workload.arrival = Arrival::kBurst;
  workload.burst_gap = 0.0;
  EXPECT_FALSE(backend_ok("sim:bitonic:8")->simulate(workload).ok);
  workload.burst_gap = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(backend_ok("sim:bitonic:8")->simulate(workload).ok);
}

TEST(RunBackend, SimDeterministicInSeed) {
  Workload workload;
  workload.threads = 3;
  workload.total_ops = 120;
  workload.seed = 7;
  const SimulatedRun a = backend_ok("sim:bitonic:8?c2=3")->simulate(workload);
  const SimulatedRun b = backend_ok("sim:bitonic:8?c2=3")->simulate(workload);
  ASSERT_TRUE(a.ok && b.ok);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].value, b.history[i].value);
    EXPECT_DOUBLE_EQ(a.history[i].start, b.history[i].start);
    EXPECT_DOUBLE_EQ(a.history[i].end, b.history[i].end);
  }
}

TEST(RunBackend, PsimRunsTheMachineClosedLoop) {
  auto backend = backend_ok("psim:bitonic:8?procs=8");
  EXPECT_FALSE(backend->live());
  EXPECT_STREQ(backend->time_unit(), "cycles");
  Workload workload;
  workload.threads = 2;  // overridden by procs=8
  workload.total_ops = 500;
  workload.seed = 5;
  const SimulatedRun run = backend->simulate(workload);
  ASSERT_TRUE(run.ok) << run.error;
  // psim stops when *completed* ops reach the target, so in-flight
  // tokens drain and the history may slightly overshoot (paper §5).
  EXPECT_GE(run.history.size(), 500u);
  EXPECT_LE(run.history.size(), 500u + 8u);
  EXPECT_GT(run.avg_tog, 0.0);
}

TEST(RunBackend, PsimRejectsOpenLoopArrivals) {
  Workload workload;
  workload.arrival = Arrival::kPoisson;
  const SimulatedRun run = backend_ok("psim:bitonic:8")->simulate(workload);
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("closed-loop"), std::string::npos);
}

TEST(RunBackend, PsimMatchesDirectMachineInvocation) {
  // The adapter must add nothing: same net + params => same history.
  auto backend = backend_ok("psim:tree:32?diffraction=on");
  Workload workload;
  workload.threads = 16;
  workload.total_ops = 400;
  workload.delayed_fraction = 0.25;
  workload.wait = 1000;
  workload.seed = 99;
  const SimulatedRun via_run = backend->simulate(workload);
  ASSERT_TRUE(via_run.ok);

  psim::MachineParams params;
  params.processors = 16;
  params.total_ops = 400;
  params.delayed_fraction = 0.25;
  params.wait_cycles = 1000;
  params.seed = 99;
  params.use_diffraction = true;
  const psim::MachineResult direct = psim::run_workload(topo::make_counting_tree(32), params);

  ASSERT_EQ(via_run.history.size(), direct.history.size());
  for (std::size_t i = 0; i < direct.history.size(); ++i) {
    EXPECT_EQ(via_run.history[i].value, direct.history[i].value);
    EXPECT_DOUBLE_EQ(via_run.history[i].start, direct.history[i].start);
    EXPECT_DOUBLE_EQ(via_run.history[i].end, direct.history[i].end);
  }
  EXPECT_DOUBLE_EQ(via_run.avg_tog, direct.avg_tog);
  EXPECT_DOUBLE_EQ(via_run.avg_c2_over_c1, direct.avg_c2_over_c1);
}

}  // namespace
}  // namespace cnet::run
