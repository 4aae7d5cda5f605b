// The pipelined deployment: run_pipeline_deployment option gating and —
// outside sanitizer builds — real fork()ed ingress/counter/record tiles
// streaming over credit-based shm links, including the `die:` SIGKILL
// rounds and the widest layout.
// Fork-based cases are skipped under ASan/TSan exactly like
// deploy_e2e_test; CI's Release deploy-smoke job runs them for real.
#include "deploy/counter_deploy.h"

#include <gtest/gtest.h>
#include <sys/prctl.h>

#include <cmath>
#include <string>
#include <thread>

#include "deploy/deploy_internal.h"
#include "lin/checker.h"
#include "run/backend_spec.h"

namespace cnet::deploy {
namespace {

run::BackendSpec spec_of(const std::string& text) {
  return run::parse_spec_or_die(text);
}

// --- run_pipeline_deployment option gating (no fork needed) -----------------

TEST(DeployPipeline, RejectsHostileOptionsBeforeForking) {
  {
    DeployOptions options;  // pipeline tiles are single-stage loops
    options.spec = spec_of("rt:bitonic:8?ws=pipe-val&tiles=2&threads=16");
    options.pipeline = true;
    options.threads_per_tile = 2;
    const DeployReport report = run_counter_deployment(options);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.pipelined);  // the dispatch picked the pipeline path
    EXPECT_NE(report.error.find("threads_per_tile must"), std::string::npos)
        << report.error;
  }
  {
    DeployOptions options;  // batch 0 issues nothing
    options.spec = spec_of("rt:bitonic:8?ws=pipe-val&tiles=2&threads=16");
    options.pipeline = true;
    options.threads_per_tile = 1;
    options.batch = 0;
    const DeployReport report = run_pipeline_deployment(options);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.error.find("batch"), std::string::npos) << report.error;
  }
  {
    DeployOptions options;  // streams + counter + record must fit threads=
    options.spec = spec_of("rt:bitonic:8?ws=pipe-val&tiles=3&threads=4");
    options.pipeline = true;
    options.threads_per_tile = 1;
    const DeployReport report = run_pipeline_deployment(options);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.error.find("tiles+2"), std::string::npos) << report.error;
  }
  // Both runners share one check of timeout_s and batch: a deadline that
  // is not a positive number of seconds or would overflow 64-bit ns, and a
  // batch no response frag can carry, are rejected before fork.
  for (const bool pipeline : {false, true}) {
    DeployOptions base;
    base.spec = spec_of("rt:bitonic:4?ws=pipe-val&tiles=1&threads=4");
    base.pipeline = pipeline;
    base.threads_per_tile = pipeline ? 1 : 4;
    base.total_ops = 1000;
    for (const double timeout : {-1.0, 0.0, std::nan(""), HUGE_VAL, 1e30}) {
      DeployOptions options = base;
      options.timeout_s = timeout;
      const DeployReport report = run_counter_deployment(options);
      EXPECT_FALSE(report.ok);
      EXPECT_EQ(report.pipelined, pipeline);
      EXPECT_NE(report.error.find("timeout_s must be"), std::string::npos)
          << "pipeline=" << pipeline << " timeout=" << timeout << ": " << report.error;
    }
    for (const std::uint32_t batch : {8189u, 4294967295u}) {
      DeployOptions options = base;
      options.batch = batch;
      const DeployReport report = run_counter_deployment(options);
      EXPECT_FALSE(report.ok);
      EXPECT_NE(report.error.find("batch must be in [1, 8188]"), std::string::npos)
          << "pipeline=" << pipeline << " batch=" << batch << ": " << report.error;
    }
  }
}

// A tile's idle and credit waits are 50 us sleeps; under the default 50 us
// timer slack they overran, and the pipeline's p99 went bimodal. The slack
// is per thread, so the probe runs on a thread of its own.
TEST(DeployPipeline, TilesSleepWithOneNanosecondTimerSlack) {
  long slack = 0;
  std::thread([&] {
    detail::TileEnv env;
    EXPECT_EQ(detail::open_tile(-1, &env), 10);  // no workspace behind fd -1
    slack = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  }).join();
  EXPECT_EQ(slack, 1);
}

#ifdef CNET_UNDER_SANITIZER

TEST(DeployPipelineE2E, SkippedUnderSanitizers) {
  GTEST_SKIP() << "fork+SIGKILL pipelines are exercised in the Release "
                  "deploy-smoke CI job; sanitizer runtimes cannot follow them";
}

#else  // !CNET_UNDER_SANITIZER

TEST(DeployPipelineE2E, CleanLinkedPipelineIsLinearizable) {
  DeployOptions options;
  options.spec = spec_of("rt:bitonic:8?ws=pipe-clean&tiles=2&threads=16&pipeline=1");
  options.threads_per_tile = 1;
  options.total_ops = 20000;
  options.batch = 8;
  const DeployReport report = run_counter_deployment(options);  // spec dispatch
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.ok) << report.to_text();
  EXPECT_TRUE(report.pipelined);
  EXPECT_EQ(report.guarantee, DeployReport::Guarantee::kLinearizable);
  EXPECT_EQ(report.tiles, 2u);
  EXPECT_EQ(report.kills, 0u);
  EXPECT_EQ(report.ops_recorded, 20000u);
  EXPECT_EQ(report.lost_values, 0u);
  EXPECT_EQ(report.dup_requests, 0u);
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
  EXPECT_TRUE(report.step_ok);
  EXPECT_NE(report.to_text().find("shm links"), std::string::npos);
  // The merged history is a real lin::History: re-check it independently.
  EXPECT_EQ(report.history.size(), 20000u);
  std::string range_message;
  EXPECT_TRUE(lin::values_form_range(report.history, &range_message)) << range_message;
}

TEST(DeployPipelineE2E, SigkillRoundDowngradesHonestlyAndLosesNothingRecorded) {
  DeployOptions options;
  options.spec =
      spec_of("rt:bitonic:8?ws=pipe-kill&tiles=2&threads=16&fault=die:5000&pipeline=1");
  options.threads_per_tile = 1;
  options.total_ops = 20000;
  options.batch = 8;
  const DeployReport report = run_counter_deployment(options);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.ok) << report.to_text();
  // Holds make the schedule deterministic: one kill per die_every boundary
  // below total_ops — 5000, 10000, 15000.
  EXPECT_EQ(report.kills, 3u);
  EXPECT_GE(report.restarts, report.kills);
  // The honest downgrade: in-flight frags on the request and response legs
  // vaporize with the victim, so the claim is counting-only with the loss
  // bounded by kills x 2 x batch — but every *request* is at-least-once,
  // so the recorded history still covers total_ops exactly.
  EXPECT_EQ(report.guarantee, DeployReport::Guarantee::kCountingOnlyLossy);
  EXPECT_EQ(report.ops_recorded, 20000u);
  EXPECT_LE(report.lost_values, report.kills * 2 * options.batch);
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
  EXPECT_TRUE(report.step_ok);
  EXPECT_NE(report.to_text().find("counting-only"), std::string::npos);
}

TEST(DeployPipelineE2E, LargestBatchFitsOneResponseFrag) {
  DeployOptions options;
  options.spec = spec_of("rt:bitonic:8?ws=pipe-maxbatch&tiles=1&threads=16&pipeline=1");
  options.threads_per_tile = 1;
  options.total_ops = 20000;
  options.batch = 8188;  // 32-byte header + 8188 values = link::kMaxMtu exactly
  const DeployReport report = run_counter_deployment(options);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.ok) << report.to_text();
  EXPECT_EQ(report.ops_recorded, 20000u);
}

// The widest pipeline the tile bound accepts: 30 ingress streams plus the
// counter and record tiles, a request link per stream, one workspace.
TEST(DeployPipelineE2E, WidestAcceptedLayoutFitsOneWorkspace) {
  DeployOptions options;
  options.spec = spec_of("rt:bitonic:8?ws=pipe-wide&tiles=30&threads=64&pipeline=1");
  options.threads_per_tile = 1;
  options.total_ops = 3000;
  options.batch = 8;
  const DeployReport report = run_counter_deployment(options);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.ok) << report.to_text();
  EXPECT_EQ(report.tiles, 30u);
  EXPECT_EQ(report.ops_recorded, 3000u);
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
}

#endif  // CNET_UNDER_SANITIZER

}  // namespace
}  // namespace cnet::deploy
