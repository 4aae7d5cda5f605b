// Fault-injection subsystem: the plan mini-grammar, the seeded injector's
// determinism, spec-level validation of the clause/family matrix, the
// DegradeGuard trip logic, and a chaos matrix — fault plans crossed with
// {rt, mp, sim} x {tree, bitonic} through the run harness, asserting the
// counting property survives every injected misbehaviour.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/plan.h"
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

TEST(FaultInjector, DecisionLogRecordsEveryDrawInOrder) {
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_fault_plan("stall:0.5:1000,pause:1:200,seed:5", &plan, nullptr));
  fault::Injector injector(plan);
  // Off by default: draws before enable_log() leave no trace.
  injector.stall_ns(0, 1);
  EXPECT_TRUE(injector.decision_log().empty());

  injector.enable_log();
  std::vector<std::uint64_t> returned;
  for (int i = 0; i < 16; ++i) returned.push_back(injector.stall_ns(1, 2));
  returned.push_back(injector.pause_ns(3));

  const std::vector<fault::Injector::Decision> log = injector.decision_log();
  ASSERT_EQ(log.size(), 17u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(log[i].kind, fault::Injector::Decision::Kind::kStall);
    EXPECT_EQ(log[i].id, 1u);
    EXPECT_EQ(log[i].layer, 2u);
    // No-injection draws are logged too (ns == 0) — that is what lets a
    // capture attribute which op drew which stall.
    EXPECT_EQ(log[i].ns, returned[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(log[16].kind, fault::Injector::Decision::Kind::kPause);
  EXPECT_EQ(log[16].id, 3u);
  EXPECT_EQ(log[16].ns, 200u);
  std::uint64_t injected = 0;
  for (const auto& d : log) {
    if (d.kind == fault::Injector::Decision::Kind::kStall && d.ns != 0) ++injected;
  }
  // stats() counts every injected stall; the log only those drawn after
  // enable_log() (the first draw above predates it).
  EXPECT_LE(injected, injector.stats().stalls);
  EXPECT_GE(injected + 1, injector.stats().stalls);
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
  EXPECT_EQ(spec.degrade, run::DegradeMode::kReport);
  run::BackendSpec reparsed;
  ASSERT_TRUE(run::parse_spec(spec.to_string(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.degrade, run::DegradeMode::kReport);
}

// --- DegradeGuard ---------------------------------------------------------

TEST(DegradeGuard, TripsOnceAboveThresholdAndLatches) {
  rt::DegradeGuard guard(rt::DegradePolicy::kReport, nullptr, /*net_depth=*/6);
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
  EXPECT_EQ(status.pad_ns, 0u);  // report policy never pads
}

TEST(DegradeGuard, PadPolicyPricesTheCor312Prefix) {
  const std::uint32_t depth = 6;
  rt::DegradeGuard guard(rt::DegradePolicy::kPad, nullptr, depth);
  const std::uint32_t pad_len = topo::padding_prefix_length(depth, rt::DegradeGuard::kPadK);
  ASSERT_GT(pad_len, 0u);
  EXPECT_EQ(guard.pad_ns(), 0u);  // no pad before the trip
  EXPECT_TRUE(guard.check_estimate(5.0, /*hop_p10=*/200.0, /*hop_p90=*/1000.0));
  // One pass hop priced at the measured c1 (the p10), times the prefix.
  EXPECT_EQ(guard.pad_ns(), static_cast<std::uint64_t>(pad_len) * 200u);
  EXPECT_EQ(guard.status().pad_len, pad_len);
}

TEST(DegradeGuard, OffPolicyNeverTrips) {
  rt::DegradeGuard guard(rt::DegradePolicy::kOff, nullptr, 6);
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

#if CNET_OBS
// kCheckPeriod counts tokens, and a batch's tokens all count: 16 batches of
// 64 cross the 1024-token boundary once, so the estimator is checked and
// the pre-seeded skew (p90/p10 about 1000) trips the guard.
TEST(DegradeGuard, BatchedTokensAdvanceTheCheckClock) {
  obs::CounterMetrics metrics;
  for (int i = 0; i < 200; ++i) {
    metrics.hop_latency_ns.record(0, 100);
    metrics.hop_latency_ns.record(0, 100'000);
  }
  rt::CounterOptions options;
  options.metrics = &metrics;
  options.degrade = rt::DegradePolicy::kReport;
  rt::NetworkCounter counter(topo::make_bitonic(8), options);
  ASSERT_NE(counter.degrade_guard(), nullptr);
  std::vector<std::uint64_t> out(64);
  for (int call = 0; call < 16; ++call) counter.next_batch(0, 0, out);
  EXPECT_TRUE(counter.degrade_guard()->tripped());
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

TEST(DegradeGuardIntegration, PadPolicyKeepsTheLinearizableClaim) {
  const run::BackendSpec spec = run::parse_spec_or_die(
      "rt:bitonic:8?metrics=on&degrade=pad&fault=stall:0.5:50000,seed:12");
  std::unique_ptr<run::CountingBackend> backend = run::make_backend(spec);
  run::Workload workload;
  workload.threads = 4;
  workload.total_ops = 6000;
  run::Runner runner;
  const run::RunReport report = runner.run(*backend, workload);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
  EXPECT_EQ(report.degrade.policy, rt::DegradePolicy::kPad);
  EXPECT_TRUE(report.degrade.tripped);
  // Padding compensates instead of downgrading: the guarantee stands.
  EXPECT_EQ(report.guarantee, run::RunReport::Guarantee::kLinearizable);
  EXPECT_GT(report.degrade.pad_ns, 0u);
  EXPECT_GT(report.degrade.pad_len, 0u);
}
#endif  // CNET_OBS

}  // namespace
}  // namespace cnet
