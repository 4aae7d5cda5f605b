// End-to-end multi-process deployment: real fork()ed worker tiles counting
// through one workspace-resident compiled plan, real SIGKILLs, supervisor
// restarts, and the merged cross-process history checked like any other
// run. The fork-based cases are skipped under ASan/TSan (the runtimes
// cannot follow fork + SIGKILL without false positives — CI runs them in
// the Release deploy-smoke job instead); validate_deploy_spec coverage
// runs everywhere.
#include "deploy/counter_deploy.h"

#include <gtest/gtest.h>

#include <string>

#include "lin/checker.h"
#include "run/backend_spec.h"

namespace cnet::deploy {
namespace {

run::BackendSpec spec_of(const std::string& text) {
  return run::parse_spec_or_die(text);
}

TEST(DeployValidate, AcceptsFetchAddCompiledPlan) {
  std::string error;
  EXPECT_TRUE(validate_deploy_spec(spec_of("rt:bitonic:8?ws=v&tiles=4&threads=16"), 4, 2,
                                   &error))
      << error;
}

TEST(DeployValidate, RejectsCrossProcessHostileSpecs) {
  std::string error;
  // Only rt runs on caller threads against shared atomics.
  EXPECT_FALSE(validate_deploy_spec(spec_of("mp:bitonic:8"), 2, 2, &error));
  // Tiles keep no obs sink, so a metrics or degrade knob would be dropped.
  EXPECT_FALSE(validate_deploy_spec(spec_of("rt:bitonic:8?threads=16&metrics"), 2, 2, &error));
  EXPECT_NE(error.find("metrics"), std::string::npos) << error;
  EXPECT_FALSE(validate_deploy_spec(spec_of("rt:bitonic:8?threads=16&metrics&degrade=report"),
                                    2, 2, &error));
  EXPECT_NE(error.find("degrade"), std::string::npos) << error;
  // tiles x threads_per_tile must fit the spec's thread-id budget.
  EXPECT_FALSE(validate_deploy_spec(spec_of("rt:bitonic:8?threads=4"), 4, 2, &error));
  EXPECT_FALSE(validate_deploy_spec(spec_of("rt:bitonic:8?threads=16"), 0, 2, &error));
  EXPECT_FALSE(validate_deploy_spec(spec_of("rt:bitonic:8?threads=16"), 2, 0, &error));
  // Every tile thread is an OS thread, so even a wider threads= stops at
  // the cap: 32 x 32 passes, 25 x 41 = 1025 does not.
  EXPECT_TRUE(validate_deploy_spec(spec_of("rt:bitonic:8?threads=4096"), 32, 32, &error));
  EXPECT_FALSE(validate_deploy_spec(spec_of("rt:bitonic:8?threads=4096"), 25, 41, &error));
  EXPECT_NE(error.find("1025 exceeds the cap of 1024 OS threads"), std::string::npos) << error;
  // Fault plans other than die: describe in-process injection, which has
  // no cross-process realization here.
  EXPECT_FALSE(validate_deploy_spec(spec_of("rt:bitonic:8?threads=16&fault=stall:0.1:50000"),
                                    2, 2, &error));
}

#ifdef CNET_UNDER_SANITIZER

TEST(DeployE2E, SkippedUnderSanitizers) {
  GTEST_SKIP() << "fork+SIGKILL deployments are exercised in the Release "
                  "deploy-smoke CI job; sanitizer runtimes cannot follow them";
}

#else  // !CNET_UNDER_SANITIZER

TEST(DeployE2E, FourTilesOneWorkspacePlanPassesAllChecks) {
  DeployOptions options;
  options.spec = spec_of("rt:bitonic:8?ws=e2e-clean&tiles=4&threads=16");
  options.threads_per_tile = 2;
  options.total_ops = 20000;
  options.batch = 4;
  const DeployReport report = run_counter_deployment(options);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.ok) << report.to_text();
  EXPECT_EQ(report.guarantee, DeployReport::Guarantee::kLinearizable);
  EXPECT_EQ(report.tiles, 4u);
  EXPECT_EQ(report.kills, 0u);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_EQ(report.ops_recorded, 20000u);
  EXPECT_EQ(report.issued, 20000u);
  EXPECT_EQ(report.lost_values, 0u);
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
  EXPECT_TRUE(report.step_ok);
  // The merged history is a real lin::History: re-check it independently.
  EXPECT_EQ(report.history.size(), 20000u);
  std::string range_message;
  EXPECT_TRUE(lin::values_form_range(report.history, &range_message)) << range_message;
  const lin::CheckResult again = lin::check(report.history);
  EXPECT_EQ(again.nonlinearizable_ops, report.analysis.nonlinearizable_ops);
}

TEST(DeployE2E, SingleTileDeploymentWorks) {
  DeployOptions options;
  options.spec = spec_of("rt:bitonic:4?ws=e2e-one&threads=16");
  options.tiles = 1;
  options.threads_per_tile = 2;
  options.total_ops = 4000;
  options.batch = 2;
  const DeployReport report = run_counter_deployment(options);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.ok) << report.to_text();
  EXPECT_EQ(report.guarantee, DeployReport::Guarantee::kLinearizable);
}

TEST(DeployE2E, SigkillMidRunRestartsAndDowngradesHonestly) {
  DeployOptions options;
  options.spec = spec_of("rt:bitonic:8?ws=e2e-kill&tiles=4&threads=16&fault=die:4000");
  options.threads_per_tile = 2;
  options.total_ops = 24000;
  options.batch = 4;
  const DeployReport report = run_counter_deployment(options);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.ok) << report.to_text();
  // The kill schedule is deterministic (workers hold at each watermark
  // until the owed SIGKILL lands): one kill per die_every boundary below
  // total_ops — 4000, 8000, ..., 20000 — and the run still completed via
  // restarts.
  EXPECT_EQ(report.kills, 5u);
  EXPECT_GE(report.restarts, report.kills);
  // The honest downgrade: a killed thread's claimed-but-unrecorded values
  // are gone, so the claim is counting-only with exact loss accounting —
  // never a pretend values_form_range.
  EXPECT_EQ(report.guarantee, DeployReport::Guarantee::kCountingOnlyLossy);
  EXPECT_EQ(report.ops_recorded, 24000u);
  EXPECT_EQ(report.issued, report.ops_recorded + report.lost_values);
  EXPECT_LE(report.lost_values,
            report.kills * options.threads_per_tile * options.batch);
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
  EXPECT_TRUE(report.step_ok);
  EXPECT_NE(report.to_text().find("counting-only"), std::string::npos);
}

TEST(DeployE2E, TimeoutFailsTheRunInsteadOfHanging) {
  DeployOptions options;
  // Far more work than the deadline allows: the supervisor must abort the
  // deployment with a diagnostic (and reap every tile), never hang.
  options.spec = spec_of("rt:bitonic:4?ws=e2e-deadline&tiles=2&threads=16");
  options.threads_per_tile = 2;
  options.total_ops = 2000000000ull;
  options.batch = 1;
  options.timeout_s = 0.2;
  const DeployReport report = run_counter_deployment(options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("timed out"), std::string::npos) << report.error;
}

#endif  // CNET_UNDER_SANITIZER

}  // namespace
}  // namespace cnet::deploy
