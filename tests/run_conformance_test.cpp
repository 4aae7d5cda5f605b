// Cross-backend conformance: seeded workload matrices run on every family
// purely from spec strings, and every cell must satisfy the counting
// property, the Def 2.2 step property, and produce a clean lin::Checker
// analysis over a well-formed history. Each family has one executor, so
// these independent checkers — not a second executor — are the oracle. A
// smoke case exercises all four families through the same Runner.
//
// Two further suites pin the live families on their own terms:
//   * DelayHarness — the paper's F/W delay experiment on rt: the Runner
//     marks round(F * threads) issuers as delayed and RtBackend busy-waits
//     W ns after every node their tokens traverse.
//   * MpEngineEquivalence — the mp actor engine must be indistinguishable
//     from the specification those checkers encode, on the seeded
//     closed-loop matrix, under delays and on sequential histories.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "run/backend.h"
#include "run/runner.h"

namespace cnet::run {
namespace {

RunReport run_spec(const std::string& spec, const Workload& workload) {
  std::string error;
  auto backend = make_backend(spec, &error);
  EXPECT_NE(backend, nullptr) << spec << " -> " << error;
  if (!backend) return RunReport{};
  Runner runner;
  return runner.run(*backend, workload);
}

void expect_conformant(const RunReport& report, const std::string& spec) {
  ASSERT_TRUE(report.ok) << spec << " -> " << report.error;
  EXPECT_TRUE(report.counting_ok) << spec << ": " << report.counting_message;
  EXPECT_TRUE(report.step_ok) << spec << ": step property violated";
  EXPECT_EQ(report.analysis.total_ops, report.history.size()) << spec;
  EXPECT_GT(report.makespan, 0.0) << spec;
  EXPECT_GT(report.throughput, 0.0) << spec;
  for (const lin::Operation& op : report.history) {
    ASSERT_LE(op.start, op.end) << spec << ": value " << op.value;
  }
}

TEST(RunConformance, SeededMatrixAcrossSimPsimRt) {
  const std::vector<std::string> specs = {
      "sim:bitonic:8",
      "sim:periodic:8?c1=1&c2=3",
      "sim:tree:16?model=fixed&c1=2",
      "psim:balancer:1",
      "psim:bitonic:8",
      "psim:tree:16?diffraction=on",
      "psim:periodic:8",
      "rt:bitonic:8",
      "rt:bitonic:8?metrics",
      "rt:tree:16",
      "mp:bitonic:8?actors=2&pad=3",
  };
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 400;
  workload.seed = 2026;
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(RunConformance, MpThreadCountSweep) {
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    Workload workload;
    workload.threads = threads;
    workload.total_ops = 200 * threads;
    workload.seed = 7 + threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_conformant(run_spec("mp:bitonic:8?actors=2", workload), "mp:bitonic:8?actors=2");
  }
}

TEST(RunConformance, BatchedWorkloadOnLiveFamilies) {
  Workload workload;
  workload.threads = 3;
  workload.total_ops = 300;
  workload.batch = 4;  // each batch is one wave on both families
  workload.seed = 99;
  for (const std::string spec : {"rt:tree:8", "mp:tree:8?actors=2"}) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(RunConformance, SameSeededWorkloadOnAllFourFamilies) {
  Workload workload;
  workload.threads = 3;
  workload.total_ops = 150;
  workload.seed = 7;
  for (const std::string spec :
       {"sim:bitonic:4", "psim:bitonic:4", "rt:bitonic:4", "mp:bitonic:4?actors=2"}) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(RunConformance, DelayedFractionMatrix) {
  // The paper's F/W injection: a quarter of issuers stall after every
  // node. Counting and step properties must survive on every family —
  // including mp, where the token message carries the wait and the
  // hosting worker burns it after each balancer transition.
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 200;
  workload.delayed_fraction = 0.25;
  workload.wait = 200;
  workload.seed = 13;
  for (const std::string spec :
       {"sim:bitonic:8", "psim:bitonic:8", "rt:bitonic:8", "mp:bitonic:8?actors=2"}) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(RunConformance, OpenLoopArrivalsOnSimAndRt) {
  Workload poisson;
  poisson.arrival = Arrival::kPoisson;
  poisson.threads = 2;
  poisson.total_ops = 100;
  poisson.seed = 21;

  poisson.rate = 5.0;  // ops per virtual time unit
  expect_conformant(run_spec("sim:bitonic:8", poisson), "sim:bitonic:8 poisson");
  poisson.rate = 2e6;  // ops per second on the live backend
  expect_conformant(run_spec("rt:bitonic:8", poisson), "rt:bitonic:8 poisson");

  Workload burst;
  burst.arrival = Arrival::kBurst;
  burst.threads = 2;
  burst.total_ops = 80;
  burst.burst_size = 4;
  burst.seed = 22;

  burst.burst_gap = 40.0;  // virtual time units
  expect_conformant(run_spec("sim:bitonic:8", burst), "sim:bitonic:8 burst");
  burst.burst_gap = 20000.0;  // ns
  expect_conformant(run_spec("rt:bitonic:8", burst), "rt:bitonic:8 burst");
}

TEST(RunConformance, SimulatedFamiliesAreDeterministicAcrossRuns) {
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 300;
  workload.seed = 42;
  for (const std::string spec : {"sim:bitonic:8?c2=3", "psim:bitonic:8"}) {
    SCOPED_TRACE(spec);
    const RunReport a = run_spec(spec, workload);
    const RunReport b = run_spec(spec, workload);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.analysis.nonlinearizable_ops, b.analysis.nonlinearizable_ops);
    EXPECT_EQ(a.analysis.worst_inversion, b.analysis.worst_inversion);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      EXPECT_EQ(a.history[i].value, b.history[i].value);
    }
  }
}

TEST(RunConformance, RunnerRejectsImpossibleCombinations) {
  Workload workload;
  workload.threads = 0;
  EXPECT_FALSE(run_spec("rt:bitonic:8", workload).ok);

  Workload bad_fraction;
  bad_fraction.threads = 4;
  bad_fraction.delayed_fraction = 1.5;
  EXPECT_FALSE(run_spec("mp:bitonic:4", bad_fraction).ok);
  bad_fraction.delayed_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(run_spec("rt:bitonic:8", bad_fraction).ok);

  Workload nan_rate;
  nan_rate.arrival = Arrival::kPoisson;
  nan_rate.rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(run_spec("rt:bitonic:8", nan_rate).ok);
  EXPECT_FALSE(run_spec("sim:bitonic:8", nan_rate).ok);

  Workload wide;
  wide.threads = 9;
  const RunReport capped = run_spec("rt:bitonic:8?threads=8", wide);
  EXPECT_FALSE(capped.ok);
  EXPECT_NE(capped.error.find("threads=8"), std::string::npos);

  // Each live issuer is an OS thread: the Runner refuses more than the cap
  // before it spawns any, on rt past a wider threads= and on mp.
  Workload crowd;
  crowd.threads = kMaxOsThreads + 1;
  for (const char* spec : {"rt:bitonic:8?threads=4096", "mp:bitonic:8"}) {
    const RunReport refused = run_spec(spec, crowd);
    EXPECT_FALSE(refused.ok) << spec;
    EXPECT_NE(refused.error.find("threads=1025 exceeds the cap of 1024 OS threads"),
              std::string::npos)
        << refused.error;
  }

  Workload open;
  open.arrival = Arrival::kPoisson;
  open.rate = 100.0;
  EXPECT_FALSE(run_spec("psim:bitonic:8", open).ok);
}

// ws= (and with it tiles= and pipeline=) shapes a deployment, which only
// `cnet_cli deploy` places: the Runner refuses it before any issuer starts,
// so the counter hands out no value.
TEST(RunConformance, RunnerRefusesDeploySpecsBeforeAnyIssuer) {
  Workload workload;
  workload.threads = 2;
  workload.total_ops = 100;
  for (const char* spec :
       {"rt:bitonic:8?ws=x&metrics", "rt:bitonic:8?threads=16&ws=x&tiles=2&pipeline=1&metrics"}) {
    const std::unique_ptr<CountingBackend> backend = make_backend(parse_spec_or_die(spec));
    const RunReport report = Runner().run(*backend, workload);
    EXPECT_FALSE(report.ok) << spec;
    EXPECT_NE(report.error.find("cnet_cli deploy"), std::string::npos) << report.error;
    EXPECT_TRUE(report.history.empty()) << spec;
    EXPECT_EQ(static_cast<RtBackend&>(*backend).metrics()->tokens.value(), 0u) << spec;
  }
}

TEST(RunConformance, ReportRendersAndCarriesMetrics) {
  Workload workload;
  workload.threads = 2;
  workload.total_ops = 100;
  const std::unique_ptr<CountingBackend> backend =
      make_backend(parse_spec_or_die("rt:bitonic:8?metrics"));
  const RunReport report = Runner().run(*backend, workload);
  ASSERT_TRUE(report.ok) << report.error;
  const std::string text = report.to_text();
  EXPECT_NE(text.find("rt:bitonic:8?metrics"), std::string::npos);
  EXPECT_NE(text.find("step property ok"), std::string::npos);
  EXPECT_FALSE(report.metrics.counters.empty());
  EXPECT_GT(report.c2c1_estimate, 0.0);
  // Each issuer's first token is sampled, so the estimate rests on timed
  // hops; an empty histogram would read 1.00 and vouch for nothing.
  EXPECT_GT(static_cast<RtBackend&>(*backend).metrics()->hop_latency_ns.total(), 0u);
}

// --- DelayHarness: the F/W experiment on rt ---------------------------------

std::uint32_t sensible_threads() {
  return std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
}

Workload rt_experiment(std::uint32_t threads, std::uint64_t ops, double delayed_fraction,
                       std::uint64_t wait_ns) {
  Workload workload;
  workload.threads = threads;
  workload.total_ops = ops;
  workload.delayed_fraction = delayed_fraction;
  workload.wait = wait_ns;
  return workload;
}

TEST(DelayHarness, NoDelayRunCountsCorrectly) {
  const Workload workload = rt_experiment(sensible_threads(), 20000, 0.0, 0);
  const RunReport report = run_spec("rt:bitonic:16", workload);
  expect_conformant(report, "rt:bitonic:16");
  EXPECT_GE(report.history.size(), workload.total_ops);
}

TEST(DelayHarness, DelayedRunStillCounts) {
  // Half the issuers wait 20us after every node. The Def 2.4 verdict is
  // timing-dependent, but the analysed fraction is well-defined.
  const RunReport report =
      run_spec("rt:bitonic:8", rt_experiment(sensible_threads(), 2000, 0.5, 20000));
  expect_conformant(report, "rt:bitonic:8");
  EXPECT_GE(report.analysis.fraction(), 0.0);
  EXPECT_LE(report.analysis.fraction(), 1.0);
}

TEST(DelayHarness, CountingTreeRuns) {
  expect_conformant(run_spec("rt:tree:16", rt_experiment(sensible_threads(), 5000, 0.0, 0)),
                    "rt:tree:16");
}

TEST(DelayHarness, SingleThreadIsAlwaysLinearizable) {
  // One issuer's operations are totally ordered, so Def 2.4 can never fire,
  // however long the per-node wait.
  const RunReport report = run_spec("rt:bitonic:8", rt_experiment(1, 3000, 1.0, 1000));
  expect_conformant(report, "rt:bitonic:8");
  EXPECT_TRUE(report.analysis.linearizable());
  EXPECT_EQ(report.analysis.nonlinearizable_ops, 0u);
}

TEST(DelayHarness, HistoryTimesAreSane) {
  const RunReport report = run_spec("rt:bitonic:8", rt_experiment(2, 1000, 0.0, 0));
  expect_conformant(report, "rt:bitonic:8");
  for (const lin::Operation& op : report.history) {
    EXPECT_LE(op.start, op.end);
    EXPECT_GE(op.start, 0.0);
    EXPECT_LE(op.end, report.makespan);
  }
}

// --- MpEngineEquivalence: mp against the checkers --------------------------

TEST(MpEngineEquivalence, SeededClosedLoopMatrix) {
  const std::vector<std::string> specs = {
      "mp:bitonic:4?actors=1",
      "mp:bitonic:8?actors=2",
      "mp:periodic:8?actors=3",
      "mp:tree:16?actors=2",
      "mp:balancer:4?actors=2",
  };
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 400;
  workload.seed = 2026;
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(MpEngineEquivalence, DelayedWorkloadAcceptedOnBothEngines) {
  // Both live engines — rt's compiled plan and mp's actors — accept half
  // the issuers delayed and keep the properties. On mp the token message
  // carries the wait.
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 200;
  workload.delayed_fraction = 0.5;
  workload.wait = 500;  // ns per node hop for the delayed half
  workload.seed = 13;
  for (const std::string spec : {"mp:bitonic:8?actors=2", "rt:bitonic:8"}) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(MpEngineEquivalence, SequentialHistoriesAreLinearizable) {
  // One issuer: the history is sequential, so any Def 2.4 inversion would
  // be an engine reordering bug, not a counting-network artifact — with or
  // without the per-hop wait.
  Workload workload;
  workload.threads = 1;
  workload.total_ops = 300;
  workload.seed = 5;
  for (const double delayed_fraction : {0.0, 1.0}) {
    workload.delayed_fraction = delayed_fraction;
    workload.wait = delayed_fraction > 0.0 ? 1000 : 0;
    SCOPED_TRACE("F=" + std::to_string(delayed_fraction));
    const RunReport report = run_spec("mp:bitonic:8?actors=2", workload);
    expect_conformant(report, "mp:bitonic:8?actors=2");
    EXPECT_EQ(report.analysis.nonlinearizable_ops, 0u);
  }
}

}  // namespace
}  // namespace cnet::run
