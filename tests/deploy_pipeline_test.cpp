// The pipelined deployment: Builder link validation (geometry, wiring,
// and the all-failures-in-one-diagnostic contract), run_pipeline_deployment
// option gating, and — outside sanitizer builds — real fork()ed
// ingress/counter/record tiles streaming over credit-based shm links,
// including the `die:` SIGKILL rounds.
// Fork-based cases are skipped under ASan/TSan exactly like
// deploy_e2e_test; CI's Release deploy-smoke job runs them for real.
#include "deploy/counter_deploy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "deploy/topology.h"
#include "lin/checker.h"
#include "link/ring.h"
#include "run/backend_spec.h"

namespace cnet::deploy {
namespace {

run::BackendSpec spec_of(const std::string& text) {
  return run::parse_spec_or_die(text);
}

/// The smallest healthy linked topology: one producer tile, one consumer
/// tile, one link between them (the link synthesizes its backing object).
Builder linked() {
  Builder b;
  b.workspace("ws");
  b.tile("prod", 0, 1);
  b.tile("cons", 1, 1);
  b.link("req", "ws", "prod", /*depth=*/8, /*burst=*/2, /*mtu=*/64);
  b.uses_link("prod", "req", LinkDir::kOut);
  b.uses_link("cons", "req", LinkDir::kIn);
  return b;
}

TEST(DeployLinks, HealthyLinkedGraphValidatesAndMaterializes) {
  Builder b = linked();
  Topology topo;
  std::string error;
  ASSERT_TRUE(b.finish(&topo, &error)) << error;

  // The link synthesized its backing object and mapped both sides RW.
  const LinkSpec* link = topo.find_link("req");
  ASSERT_NE(link, nullptr);
  const ObjectSpec* obj = topo.find_object(link->object_name());
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->align, link::Ring::align());
  EXPECT_NE(topo.to_text().find("req"), std::string::npos);

  // materialize() formats a live ring inside the workspace object.
  std::map<std::string, shm::Workspace> live;
  ASSERT_TRUE(materialize(topo, &live, &error)) << error;
  std::uint64_t footprint = 0;
  void* mem = live.at("ws").find(link->object_name(), &footprint);
  ASSERT_NE(mem, nullptr);
  link::Ring ring;
  ASSERT_TRUE(link::Ring::attach(mem, footprint, &ring, &error)) << error;
  EXPECT_EQ(ring.depth(), 8u);
  EXPECT_EQ(ring.burst(), 2u);
  EXPECT_EQ(ring.consumers(), 1u);
  EXPECT_TRUE(ring.reliable(0));
}

TEST(DeployLinks, RejectsWiringMistakes) {
  Topology topo;
  std::string error;
  {
    Builder b = linked();  // same link declared twice
    b.link("req", "ws", "prod", 8, 2, 64);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("declared twice"), std::string::npos) << error;
  }
  {
    Builder b;  // kOut from a tile the link does not name as producer
    b.workspace("ws");
    b.tile("prod", 0, 1);
    b.tile("cons", 1, 1);
    b.link("req", "ws", "prod", 8, 2, 64);
    b.uses_link("cons", "req", LinkDir::kOut);
    b.uses_link("cons", "req", LinkDir::kIn);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("declares itself producer"), std::string::npos) << error;
  }
  {
    Builder b;  // producer never declares its kOut side
    b.workspace("ws");
    b.tile("prod", 0, 1);
    b.tile("cons", 1, 1);
    b.link("req", "ws", "prod", 8, 2, 64);
    b.uses_link("cons", "req", LinkDir::kIn);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("never declared uses_link"), std::string::npos) << error;
  }
  {
    Builder b;  // a link nobody reads moves nothing
    b.workspace("ws");
    b.tile("prod", 0, 1);
    b.link("req", "ws", "prod", 8, 2, 64);
    b.uses_link("prod", "req", LinkDir::kOut);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("no consumer"), std::string::npos) << error;
  }
  {
    Builder b = linked();  // a use naming a link that was never declared
    b.uses_link("cons", "ghost", LinkDir::kIn);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("unknown link 'ghost'"), std::string::npos) << error;
  }
  {
    Builder b = linked();  // a use naming a tile that was never declared
    b.uses_link("nobody", "req", LinkDir::kIn);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("unknown tile 'nobody'"), std::string::npos) << error;
  }
  {
    Builder b;  // ring geometry is validated at finish(), before any fork
    b.workspace("ws");
    b.tile("prod", 0, 1);
    b.tile("cons", 1, 1);
    b.link("req", "ws", "prod", /*depth=*/3, /*burst=*/2, /*mtu=*/64);
    b.uses_link("prod", "req", LinkDir::kOut);
    b.uses_link("cons", "req", LinkDir::kIn);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("depth"), std::string::npos) << error;
  }
}

TEST(DeployLinks, FinishAggregatesEveryFailureIntoOneDiagnostic) {
  // Three independent mistakes — duplicate workspace, a link with no
  // consumer, and an overlapping thread slice — must all come back from a
  // single finish() call, joined into one message.
  Builder b;
  b.workspace("ws").workspace("ws");
  b.tile("prod", 0, 2);
  b.tile("late", 1, 2);  // overlaps prod at thread 1
  b.link("req", "ws", "prod", 8, 2, 64);
  b.uses_link("prod", "req", LinkDir::kOut);
  Topology topo;
  std::string error;
  EXPECT_FALSE(b.finish(&topo, &error));
  EXPECT_NE(error.find("deploy topology: "), std::string::npos) << error;
  EXPECT_NE(error.find("'ws' declared twice"), std::string::npos) << error;
  EXPECT_NE(error.find("link 'req' has no consumer"), std::string::npos) << error;
  EXPECT_NE(error.find("overlap"), std::string::npos) << error;
  // Joined, not truncated: the separators prove multiple entries survived.
  EXPECT_NE(error.find("; "), std::string::npos) << error;
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

#endif  // CNET_UNDER_SANITIZER

}  // namespace
}  // namespace cnet::deploy
