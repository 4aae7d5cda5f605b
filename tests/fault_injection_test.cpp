// Fault-injection subsystem: the plan mini-grammar, the seeded injector's
// determinism, spec-level validation of the clause/family matrix, the
// DegradeGuard trip logic and its sample clock, the guarantee line a
// faulted report prints, and a chaos matrix — fault plans crossed with
// {rt, mp, sim} x {tree, bitonic} through the run harness, asserting the
// counting property survives every injected misbehaviour.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "lin/checker.h"
#include "obs/backend_metrics.h"
#include "run/backend.h"
#include "run/backend_spec.h"
#include "run/runner.h"
#include "rt/degrade_guard.h"
#include "rt/network_counter.h"
#include "topo/builders.h"

namespace cnet {
namespace {

// --- plan grammar ---------------------------------------------------------

TEST(FaultPlan, ParsesEveryClause) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::parse_fault_plan(
      "stall:0.05:200000:2,pause:0.01:500000,die:100,delay:0.1:20000,seed:7", &plan, &error))
      << error;
  EXPECT_DOUBLE_EQ(plan.stall_prob, 0.05);
  EXPECT_EQ(plan.stall_ns, 200000u);
  EXPECT_EQ(plan.stall_hop, 2u);
  EXPECT_DOUBLE_EQ(plan.pause_prob, 0.01);
  EXPECT_EQ(plan.pause_ns, 500000u);
  EXPECT_EQ(plan.die_every, 100u);
  EXPECT_DOUBLE_EQ(plan.delay_prob, 0.1);
  EXPECT_EQ(plan.delay_ns, 20000u);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, StallHopDefaultsToAnyHop) {
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_fault_plan("stall:1:50000", &plan, nullptr));
  EXPECT_EQ(plan.stall_hop, fault::kAnyHop);
}

TEST(FaultPlan, ToStringRoundTrips) {
  for (const char* text : {"stall:0.05:200000", "stall:1:50000:2", "pause:0.01:500000",
                           "die:100", "delay:0.1:20000",
                           "stall:0.5:1000,pause:0.25:2000,die:8,delay:0.125:300,seed:42"}) {
    fault::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fault::parse_fault_plan(text, &plan, &error)) << error;
    EXPECT_EQ(plan.to_string(), text);
    fault::FaultPlan reparsed;
    ASSERT_TRUE(fault::parse_fault_plan(plan.to_string(), &reparsed, &error)) << error;
    EXPECT_EQ(reparsed.to_string(), plan.to_string());
  }
}

TEST(FaultPlan, RejectsMalformedPlans) {
  const struct {
    const char* text;
    const char* why;  // substring the diagnostic must contain
  } kCases[] = {
      {"", "empty plan"},
      {"stall:0.5:1000,,die:5", "stray ','"},
      {"explode:1:2", "unknown clause"},
      {"stall:0.5", "takes prob:ns"},
      {"stall:1.5:1000", "not in [0, 1]"},
      {"stall:0.5:fast", "not a number"},
      {"die:0", "period >= 1"},
      {"die:many", "period >= 1"},
      {"seed:nope", "takes a number"},
      {"stall:0:0", "injects nothing"},
  };
  for (const auto& c : kCases) {
    fault::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(fault::parse_fault_plan(c.text, &plan, &error)) << c.text;
    EXPECT_NE(error.find(c.why), std::string::npos)
        << "diagnostic for '" << c.text << "' was: " << error;
  }
}

// --- injector -------------------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisionSequence) {
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_fault_plan("stall:0.5:1000,seed:99", &plan, nullptr));
  fault::Injector a(plan);
  fault::Injector b(plan);
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t id = static_cast<std::uint32_t>(i % 8);
    EXPECT_EQ(a.stall_ns(id, 1), b.stall_ns(id, 1)) << "diverged at draw " << i;
  }
  EXPECT_EQ(a.stats().stalls, b.stats().stalls);
  EXPECT_GT(a.stats().stalls, 0u);  // p = 0.5 over 2000 draws
  EXPECT_LT(a.stats().stalls, 2000u);
}

TEST(FaultInjector, HopTargetingFiltersLayers) {
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_fault_plan("stall:1:5000:2", &plan, nullptr));
  fault::Injector injector(plan);
  EXPECT_EQ(injector.stall_ns(0, 1), 0u);
  EXPECT_EQ(injector.stall_ns(0, 3), 0u);
  EXPECT_EQ(injector.stall_ns(0, 2), 5000u);  // p = 1 on the targeted layer
  EXPECT_EQ(injector.stats().stalls, 1u);
  EXPECT_EQ(injector.stats().stall_ns, 5000u);
}

TEST(FaultInjector, DeathScheduleIsArithmeticNotRandom) {
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_fault_plan("die:10", &plan, nullptr));
  fault::Injector injector(plan);
  // (op_index + id) % die_every == die_every - 1: predictable per issuer.
  for (std::uint64_t op = 0; op < 40; ++op) {
    EXPECT_EQ(injector.should_die(0, op), op % 10 == 9) << "id 0, op " << op;
  }
  for (std::uint64_t op = 0; op < 40; ++op) {
    EXPECT_EQ(injector.should_die(3, op), (op + 3) % 10 == 9) << "id 3, op " << op;
  }
  EXPECT_EQ(injector.stats().deaths, 8u);
}

TEST(FaultInjector, InactiveClausesNeverFire) {
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_fault_plan("stall:1:1000", &plan, nullptr));
  fault::Injector injector(plan);
  EXPECT_EQ(injector.pause_ns(0), 0u);
  EXPECT_EQ(injector.delivery_delay_ns(0), 0u);
  EXPECT_FALSE(injector.should_die(0, 0));
  EXPECT_EQ(injector.stats().pauses, 0u);
  EXPECT_EQ(injector.stats().delays, 0u);
  EXPECT_EQ(injector.stats().deaths, 0u);
}

// --- spec validation (clause/family matrix) -------------------------------

TEST(FaultSpec, FaultOptionRoundTripsThroughTheSpec) {
  run::BackendSpec spec;
  std::string error;
  ASSERT_TRUE(run::parse_spec("mp:bitonic:8?actors=3&fault=stall:0.5:1000,die:50,seed:9",
                              &spec, &error))
      << error;
  EXPECT_EQ(spec.fault.to_string(), "stall:0.5:1000,die:50,seed:9");
  run::BackendSpec reparsed;
  ASSERT_TRUE(run::parse_spec(spec.to_string(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.to_string(), spec.to_string());
}

TEST(FaultSpec, PsimAcceptsStallAndDelayAsCycleDebits) {
  run::BackendSpec spec;
  std::string error;
  ASSERT_TRUE(run::parse_spec("psim:tree:8?fault=stall:0.5:1000", &spec, &error)) << error;
  EXPECT_EQ(spec.fault.to_string(), "stall:0.5:1000");
  ASSERT_TRUE(run::parse_spec("psim:bitonic:4?fault=delay:0.25:300,seed:3", &spec, &error))
      << error;
  run::BackendSpec reparsed;
  ASSERT_TRUE(run::parse_spec(spec.to_string(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.to_string(), spec.to_string());
}

TEST(FaultSpec, PsimRejectsPauseAndDieWithNamedReasons) {
  run::BackendSpec spec;
  std::string error;
  EXPECT_FALSE(run::parse_spec("psim:tree:8?fault=pause:0.1:1000", &spec, &error));
  EXPECT_NE(error.find("'pause'"), std::string::npos) << error;
  EXPECT_NE(error.find("coroutine"), std::string::npos) << error;
  EXPECT_FALSE(run::parse_spec("psim:tree:8?fault=die:10", &spec, &error));
  EXPECT_NE(error.find("'die'"), std::string::npos) << error;
  EXPECT_NE(error.find("client"), std::string::npos) << error;
}

TEST(FaultSpec, MpOnlyClausesRejectedElsewhere) {
  run::BackendSpec spec;
  std::string error;
  EXPECT_FALSE(run::parse_spec("rt:bitonic:8?fault=pause:0.1:1000", &spec, &error));
  EXPECT_NE(error.find("mp only"), std::string::npos) << error;
  EXPECT_FALSE(run::parse_spec("sim:bitonic:8?fault=die:10", &spec, &error));
  EXPECT_NE(error.find("mp only"), std::string::npos) << error;
  // Stalls exist everywhere a token traverses links.
  EXPECT_TRUE(run::parse_spec("rt:bitonic:8?fault=stall:0.1:1000", &spec, &error)) << error;
  EXPECT_TRUE(run::parse_spec("sim:bitonic:8?fault=stall:0.1:3", &spec, &error)) << error;
}

TEST(FaultSpec, MalformedPlanDiagnosticEchoesTheSpec) {
  run::BackendSpec spec;
  std::string error;
  EXPECT_FALSE(run::parse_spec("mp:bitonic:8?fault=die:0", &spec, &error));
  EXPECT_NE(error.find("fault"), std::string::npos) << error;
}

TEST(FaultSpec, DegradeRequiresMetrics) {
  run::BackendSpec spec;
  std::string error;
  EXPECT_FALSE(run::parse_spec("rt:bitonic:8?degrade=report", &spec, &error));
  EXPECT_NE(error.find("metrics"), std::string::npos) << error;
  ASSERT_TRUE(run::parse_spec("rt:bitonic:8?metrics=on&degrade=report", &spec, &error))
      << error;
  EXPECT_EQ(spec.degrade, rt::DegradePolicy::kReport);
  run::BackendSpec reparsed;
  ASSERT_TRUE(run::parse_spec(spec.to_string(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.degrade, rt::DegradePolicy::kReport);
}

// --- DegradeGuard ---------------------------------------------------------

TEST(DegradeGuard, TripsOnceAboveThresholdAndLatches) {
  rt::DegradeGuard guard(rt::DegradePolicy::kReport, nullptr);
  EXPECT_FALSE(guard.check_estimate(1.5, 100.0, 150.0));
  EXPECT_FALSE(guard.tripped());
  EXPECT_DOUBLE_EQ(guard.status().estimate, 1.5);  // last checked, pre-trip
  EXPECT_TRUE(guard.check_estimate(3.0, 100.0, 300.0));
  EXPECT_TRUE(guard.tripped());
  // Latched: a later healthy estimate cannot untrip or overwrite the quantiles.
  EXPECT_TRUE(guard.check_estimate(1.0, 5.0, 5.0));
  const rt::DegradeGuard::Status status = guard.status();
  EXPECT_TRUE(status.tripped);
  EXPECT_DOUBLE_EQ(status.estimate, 3.0);
  EXPECT_DOUBLE_EQ(status.hop_p10, 100.0);
  EXPECT_DOUBLE_EQ(status.hop_p90, 300.0);
}

TEST(DegradeGuard, OffPolicyNeverTrips) {
  rt::DegradeGuard guard(rt::DegradePolicy::kOff, nullptr);
  EXPECT_FALSE(guard.check_estimate(100.0, 1.0, 100.0));
  EXPECT_FALSE(guard.tripped());
}

// --- chaos matrix ---------------------------------------------------------

struct ChaosCase {
  const char* name;
  const char* spec;
};

std::string chaos_name(const ::testing::TestParamInfo<ChaosCase>& info) {
  return info.param.name;
}

class FaultChaos : public ::testing::TestWithParam<ChaosCase> {};

// Every cell: a faulted run still completes, every value 0..n-1 is handed
// out exactly once (counting property), the outputs keep the step property,
// and abandoned operations are accounted — not lost.
TEST_P(FaultChaos, CountingPropertySurvivesInjectedFaults) {
  const run::BackendSpec spec = run::parse_spec_or_die(GetParam().spec);
  std::unique_ptr<run::CountingBackend> backend = run::make_backend(spec);
  run::Workload workload;
  workload.threads = 4;
  workload.total_ops = 600;
  workload.seed = 0xc4a05;
  run::Runner runner;
  const run::RunReport report = runner.run(*backend, workload);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
  EXPECT_TRUE(report.step_ok);
  EXPECT_TRUE(report.faults);
  EXPECT_FALSE(report.interrupted);
  EXPECT_TRUE(report.drain_quiescent);
  if (backend->live()) {
    // Completed + abandoned covers the whole quota, and every abandoned
    // value is either recycled into the history or reclaimed by the drain.
    EXPECT_EQ(report.history.size() + report.abandoned_ops, workload.total_ops);
    EXPECT_LE(report.reclaimed_values.size(), report.abandoned_ops);
  } else {
    EXPECT_EQ(report.history.size(), workload.total_ops);
  }
  const bool degraded = report.guarantee == run::RunReport::Guarantee::kCountingOnly;
  EXPECT_EQ(degraded, report.abandoned_ops != 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultChaos,
    ::testing::Values(
        ChaosCase{"rt_bitonic_stall", "rt:bitonic:8?fault=stall:0.2:2000,seed:1"},
        ChaosCase{"rt_tree_stall_hop", "rt:tree:8?fault=stall:0.5:1500:2,seed:2"},
        ChaosCase{"sim_bitonic_stall", "sim:bitonic:8?fault=stall:0.3:5,seed:3"},
        ChaosCase{"sim_tree_stall", "sim:tree:8?fault=stall:0.5:3,seed:4"},
        ChaosCase{"mp_bitonic_full",
                  "mp:bitonic:8?actors=3&fault=stall:0.1:1000,pause:0.05:2000,"
                  "delay:0.1:1500,die:50,seed:5"},
        ChaosCase{"mp_tree_deaths", "mp:tree:8?actors=2&fault=die:25,seed:6"},
        ChaosCase{"mp_bitonic_stall_die",
                  "mp:bitonic:8?actors=2&fault=stall:0.2:1000,die:40,seed:7"},
        ChaosCase{"mp_tree_delay", "mp:tree:8?actors=2&fault=delay:0.3:2000,seed:8"}),
    chaos_name);

// --- report text ------------------------------------------------------------

// A faulted run keeps its linearizable claim only while its own Def 2.4
// count is zero.
TEST(RunReportText, FaultedRunClaimsNoMoreThanItsDef24Count) {
  run::RunReport report;
  report.ok = true;
  report.faults = true;
  // Value 1 completes before value 0 starts: one inversion.
  report.history = {{0.0, 1.0, 1, 0}, {2.0, 3.0, 0, 1}};
  report.analysis = lin::check(report.history);
  ASSERT_EQ(report.analysis.nonlinearizable_ops, 1u);
  EXPECT_NE(report.to_text().find("guarantee: linearizable claim FALSIFIED — Def 2.4 counts 1 "
                                  "non-linearizable of 2 ops\n"),
            std::string::npos)
      << report.to_text();

  report.history = {{0.0, 1.0, 0, 0}, {2.0, 3.0, 1, 1}};
  report.analysis = lin::check(report.history);
  ASSERT_EQ(report.analysis.nonlinearizable_ops, 0u);
  EXPECT_NE(report.to_text().find("guarantee: linearizable\n"), std::string::npos)
      << report.to_text();
}

// A counter whose sink already holds a skewed hop histogram (p90/p10 about
// 1000), so the guard trips at its first check.
struct SkewedGuardedCounter {
  obs::CounterMetrics metrics;
  std::unique_ptr<rt::NetworkCounter> counter;

  SkewedGuardedCounter() {
    for (int i = 0; i < 200; ++i) {
      metrics.hop_latency_ns.record(0, 100);
      metrics.hop_latency_ns.record(0, 100'000);
    }
    rt::CounterOptions options;
    options.metrics = &metrics;
    options.degrade = rt::DegradePolicy::kReport;
    counter = std::make_unique<rt::NetworkCounter>(topo::make_bitonic(8), options);
  }
  bool tripped() const { return counter->degrade_guard()->tripped(); }
};

// kCheckPeriod counts sampled tokens, and a batch's sampled tokens all
// count: at sample period 64 each batch of 64 holds one, so the 16th batch
// brings the 16th sample and the first estimator check.
TEST(DegradeGuard, BatchedTokensAdvanceTheCheckClock) {
  SkewedGuardedCounter guarded;
  ASSERT_EQ(guarded.metrics.sample_period, 64u);
  ASSERT_NE(guarded.counter->degrade_guard(), nullptr);
  std::vector<std::uint64_t> out(64);
  for (int call = 0; call < 15; ++call) guarded.counter->next_batch(0, 0, out);
  EXPECT_FALSE(guarded.tripped());
  guarded.counter->next_batch(0, 0, out);
  EXPECT_TRUE(guarded.tripped());
}

// Single tokens on one thread: clock values 0, 64, ..., 960 are sampled, so
// 960 calls make 15 samples and the 961st call is the 16th, which checks.
TEST(DegradeGuard, SampledSingleTokensAdvanceTheCheckClock) {
  SkewedGuardedCounter guarded;
  ASSERT_EQ(guarded.metrics.sample_period, 64u);
  for (int call = 0; call < 960; ++call) guarded.counter->next(0);
  EXPECT_FALSE(guarded.tripped());
  guarded.counter->next(0);
  EXPECT_TRUE(guarded.tripped());
}

// Integration trip: a heavy bimodal stall plan (half the hops 50x slower)
// must push the online p90/p10 estimate over Cor 3.9's threshold and trip
// the guard; under the report policy the run's guarantee degrades while the
// counting property holds.
TEST(DegradeGuardIntegration, ReportPolicyDowngradesTheGuarantee) {
  const run::BackendSpec spec = run::parse_spec_or_die(
      "rt:bitonic:8?metrics=on&degrade=report&fault=stall:0.5:50000,seed:11");
  std::unique_ptr<run::CountingBackend> backend = run::make_backend(spec);
  run::Workload workload;
  workload.threads = 4;
  workload.total_ops = 6000;
  run::Runner runner;
  const run::RunReport report = runner.run(*backend, workload);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
  EXPECT_EQ(report.degrade.policy, rt::DegradePolicy::kReport);
  EXPECT_TRUE(report.degrade.tripped);
  EXPECT_GT(report.degrade.estimate, 2.0);
  EXPECT_GT(report.degrade.hop_p90, report.degrade.hop_p10);
  EXPECT_EQ(report.guarantee, run::RunReport::Guarantee::kCountingOnly);
}

}  // namespace
}  // namespace cnet
