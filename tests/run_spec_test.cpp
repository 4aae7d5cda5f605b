// BackendSpec grammar: round-trips, every diagnostic the parser can emit,
// and an exhaustive sweep over the option cross-product of each family.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "run/backend_spec.h"
#include "run/workload.h"

namespace cnet::run {
namespace {

BackendSpec parse_ok(const std::string& text) {
  BackendSpec spec;
  std::string error;
  EXPECT_TRUE(parse_spec(text, &spec, &error)) << text << " -> " << error;
  return spec;
}

std::string parse_fail(const std::string& text) {
  BackendSpec spec;
  std::string error;
  EXPECT_FALSE(parse_spec(text, &spec, &error)) << text << " unexpectedly parsed";
  return error;
}

TEST(RunSpec, ParsesTheIssueExamples) {
  BackendSpec rt = parse_ok("rt:tree:32?metrics");
  EXPECT_EQ(rt.family, Family::kRt);
  EXPECT_EQ(rt.structure, Structure::kTree);
  EXPECT_EQ(rt.width, 32u);
  EXPECT_TRUE(rt.metrics);

  BackendSpec psim = parse_ok("psim:tree:64?procs=128");
  EXPECT_EQ(psim.family, Family::kPsim);
  EXPECT_EQ(psim.structure, Structure::kTree);
  EXPECT_EQ(psim.width, 64u);
  EXPECT_EQ(psim.procs, 128u);

  BackendSpec sim = parse_ok("sim:periodic:16?c1=1&c2=3&model=uniform");
  EXPECT_EQ(sim.family, Family::kSim);
  EXPECT_EQ(sim.structure, Structure::kPeriodic);
  EXPECT_DOUBLE_EQ(sim.c1, 1.0);
  EXPECT_DOUBLE_EQ(sim.c2, 3.0);
  EXPECT_EQ(sim.delay, DelayKind::kUniform);

  BackendSpec mp = parse_ok("mp:bitonic:8?actors=4");
  EXPECT_EQ(mp.family, Family::kMp);
  EXPECT_EQ(mp.actors, 4u);
}

TEST(RunSpec, BareFlagsAndOnOffValues) {
  EXPECT_TRUE(parse_ok("rt:bitonic:8?metrics").metrics);
  EXPECT_TRUE(parse_ok("rt:bitonic:8?metrics=on").metrics);
  EXPECT_FALSE(parse_ok("rt:bitonic:8?metrics=off").metrics);
  EXPECT_TRUE(parse_ok("psim:tree:8?diffraction").diffraction);
}

TEST(RunSpec, DefaultsMatchDefaultStruct) {
  const BackendSpec parsed = parse_ok("rt:bitonic:32");
  const BackendSpec defaults{};
  EXPECT_EQ(parsed.degrade, defaults.degrade);
  EXPECT_EQ(parsed.prism_width, defaults.prism_width);
  EXPECT_EQ(parsed.max_threads, defaults.max_threads);
  EXPECT_EQ(parsed.pad_ratio, defaults.pad_ratio);
  EXPECT_EQ(parsed.metrics, defaults.metrics);
}

// --- degenerate widths surface as parse errors, not CNET_CHECK aborts ----

TEST(RunSpec, DegenerateWidthsAreParseErrors) {
  for (const char* text : {"rt:bitonic:0", "rt:bitonic:1", "rt:bitonic:3", "rt:bitonic:48",
                           "sim:periodic:0", "sim:periodic:1", "psim:tree:0", "psim:tree:1",
                           "mp:bitonic:0", "mp:bitonic:7"}) {
    const std::string error = parse_fail(text);
    EXPECT_NE(error.find(text), std::string::npos) << "spec not echoed: " << error;
    EXPECT_NE(error.find("power of two"), std::string::npos) << error;
  }
  // A single balancer is the one structure where width 1 is meaningful.
  EXPECT_EQ(parse_ok("psim:balancer:1").width, 1u);
  EXPECT_NE(parse_fail("psim:balancer:0").find(">= 1"), std::string::npos);
}

TEST(RunSpec, AbsurdWidthsAreParseErrors) {
  EXPECT_NE(parse_fail("rt:bitonic:131072").find("maximum"), std::string::npos);
  EXPECT_NE(parse_fail("rt:bitonic:4294967296").find("not a number"), std::string::npos);
}

// --- every other diagnostic ----------------------------------------------

TEST(RunSpec, ShapeErrors) {
  EXPECT_NE(parse_fail("").find("expected <family>"), std::string::npos);
  EXPECT_NE(parse_fail("rt").find("expected <family>"), std::string::npos);
  EXPECT_NE(parse_fail("rt:bitonic").find("expected <family>"), std::string::npos);
  EXPECT_NE(parse_fail("rt:bitonic:x").find("not a number"), std::string::npos);
  EXPECT_NE(parse_fail("rt:bitonic:").find("not a number"), std::string::npos);
}

TEST(RunSpec, UnknownNamesListAlternatives) {
  EXPECT_NE(parse_fail("gpu:bitonic:8").find("valid: sim, psim, rt, mp"), std::string::npos);
  EXPECT_NE(parse_fail("rt:torus:8").find("valid: bitonic, periodic, tree, balancer"),
            std::string::npos);
}

TEST(RunSpec, OptionShapeErrors) {
  EXPECT_NE(parse_fail("rt:bitonic:8?").find("empty option"), std::string::npos);
  EXPECT_NE(parse_fail("psim:bitonic:8?procs=4&&prism=4").find("empty option"),
            std::string::npos);
  EXPECT_NE(parse_fail("psim:bitonic:8?prism=").find("empty value"), std::string::npos);
  EXPECT_NE(parse_fail("rt:bitonic:8?=plan").find("empty key"), std::string::npos);
}

TEST(RunSpec, UnknownOptionsNameTheFamilyCatalogue) {
  EXPECT_NE(parse_fail("rt:bitonic:8?procs=4").find("unknown rt option"), std::string::npos);
  EXPECT_NE(parse_fail("psim:bitonic:8?threads=4").find("unknown psim option"),
            std::string::npos);
  EXPECT_NE(parse_fail("sim:bitonic:8?actors=2").find("unknown sim option"), std::string::npos);
  EXPECT_NE(parse_fail("mp:bitonic:8?c1=2").find("unknown mp option"), std::string::npos);
  // mp names its worker count one way: `workers=` was an alias of `actors=`.
  EXPECT_NE(parse_fail("mp:bitonic:8?workers=2").find("unknown mp option"), std::string::npos);
}

TEST(RunSpec, IllTypedOptionValues) {
  EXPECT_NE(parse_fail("rt:bitonic:8?metrics=maybe").find("on|off"), std::string::npos);
  EXPECT_NE(parse_fail("psim:bitonic:8?prism=lots").find("slot count"), std::string::npos);
  EXPECT_NE(parse_fail("rt:bitonic:8?threads=0").find(">= 1"), std::string::npos);
  EXPECT_NE(parse_fail("psim:bitonic:8?procs=0").find(">= 1"), std::string::npos);
  EXPECT_NE(parse_fail("psim:bitonic:8?hop=fast").find("cycle count"), std::string::npos);
  EXPECT_NE(parse_fail("sim:bitonic:8?model=gamma").find("uniform|fixed"), std::string::npos);
  EXPECT_NE(parse_fail("sim:bitonic:8?c1=-1").find("positive time"), std::string::npos);
  EXPECT_NE(parse_fail("sim:bitonic:8?c2=zero").find("positive time"), std::string::npos);
  EXPECT_NE(parse_fail("mp:bitonic:8?actors=0").find(">= 1"), std::string::npos);
  // Each mp worker is an OS thread; parsing builds no service, so no worker.
  EXPECT_EQ(parse_ok("mp:tree:8?actors=1024").actors, kMaxOsThreads);
  for (const char* spec : {"mp:tree:8?actors=1025", "mp:tree:8?actors=4294967295"}) {
    EXPECT_NE(parse_fail(spec).find("capped at 1024 OS threads"), std::string::npos) << spec;
  }
  EXPECT_NE(parse_fail("mp:bitonic:8?pad=999").find("pad"), std::string::npos);
  EXPECT_NE(parse_fail("rt:bitonic:8?metrics&degrade=pad")
                .find("'degrade=pad' was removed: Cor 3.12 padding needs a known bound"),
            std::string::npos);
}

TEST(RunSpec, CombinationErrors) {
  EXPECT_NE(parse_fail("sim:bitonic:8?c1=3&c2=2").find("c2 must be >= c1"), std::string::npos);
  EXPECT_NE(parse_fail("psim:bitonic:8?diffraction").find("requires the tree"),
            std::string::npos);
  EXPECT_NE(parse_fail("sim:bitonic:8?metrics").find("no obs surface"), std::string::npos);
  EXPECT_NE(parse_fail("rt:bitonic:8?pad=3")
                .find("real threads cross pass-through nodes in no time"),
            std::string::npos);
}

// rt keeps no prism: both of its keys are errors with every value, and each
// names why and where the diffracting tree runs.
TEST(RunSpec, RtRefusesPrismOptions) {
  for (const char* text : {"rt:tree:32?diffraction=on", "rt:tree:8?diffraction",
                           "rt:tree:8?diffraction=off", "rt:tree:8?metrics&diffraction"}) {
    const std::string error = parse_fail(text);
    EXPECT_NE(error.find("option 'diffraction' does not apply to rt: on real threads a prism "
                         "ran 7-68x slower than the toggle it falls back to"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("psim:tree:W?diffraction=on"), std::string::npos) << error;
  }
  for (const char* text : {"rt:bitonic:8?prism=4", "rt:tree:8?prism=0", "rt:tree:8?prism=lots"}) {
    const std::string error = parse_fail(text);
    EXPECT_NE(error.find("option 'prism' does not apply to rt: on real threads a prism ran "
                         "7-68x slower than the toggle it falls back to"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("psim:tree:W?diffraction=on"), std::string::npos) << error;
  }
}

// rt keeps one balancer kind: `mcs` is an error with every value, and names
// why and where the paper's MCS-locked network runs.
TEST(RunSpec, RtRefusesMcs) {
  for (const char* text : {"rt:bitonic:8?mcs", "rt:bitonic:32?mcs=on", "rt:tree:8?mcs=off",
                           "rt:bitonic:8?threads=8&mcs&metrics"}) {
    const std::string error = parse_fail(text);
    EXPECT_NE(error.find("option 'mcs' does not apply to rt: on real threads MCS-locked "
                         "balancers were never faster than the fetch-add toggles"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("psim:bitonic:W"), std::string::npos) << error;
  }
}

// psim builds prisms only with diffraction=on, so a slot count without it
// sizes nothing: refused in either key order, and with diffraction=off.
TEST(RunSpec, PsimRefusesPrismWithoutDiffraction) {
  for (const char* text : {"psim:bitonic:8?prism=4", "psim:tree:8?prism=4",
                           "psim:tree:8?prism=0&procs=4", "psim:tree:8?diffraction=off&prism=2",
                           "psim:tree:8?prism=2&diffraction=off"}) {
    const std::string error = parse_fail(text);
    EXPECT_NE(error.find("option 'prism' requires diffraction=on"), std::string::npos) << error;
  }
  EXPECT_EQ(parse_ok("psim:tree:8?prism=2&diffraction").prism_width, 2u);
  EXPECT_EQ(parse_ok("psim:tree:8?diffraction=on&prism=2").prism_width, 2u);
}

// FixedDelay reads only c1, so c2 under model=fixed bounds nothing: refused
// in either key order. c1 still sets the fixed link time.
TEST(RunSpec, SimRefusesC2UnderFixedModel) {
  for (const char* text : {"sim:tree:8?model=fixed&c2=9", "sim:tree:8?c2=9&model=fixed",
                           "sim:bitonic:8?c1=2&model=fixed&c2=2"}) {
    const std::string error = parse_fail(text);
    EXPECT_NE(error.find("option 'c2' does not apply to model=fixed"), std::string::npos)
        << error;
  }
  EXPECT_DOUBLE_EQ(parse_ok("sim:tree:8?c1=9&model=fixed").c1, 9.0);
  EXPECT_DOUBLE_EQ(parse_ok("sim:tree:8?model=uniform&c2=9").c2, 9.0);
}

// psim's toggles are always MCS-locked, so `mcs` selected nothing there: it
// is an error with every value, alone or beside the prism keys.
TEST(RunSpec, PsimRefusesMcs) {
  for (const char* text : {"psim:tree:64?mcs&procs=128", "psim:bitonic:8?mcs=on",
                           "psim:bitonic:8?mcs=off", "psim:tree:8?mcs&diffraction"}) {
    const std::string error = parse_fail(text);
    EXPECT_NE(error.find("option 'mcs' does not apply to psim: psim's toggle balancers are "
                         "always MCS-locked"),
              std::string::npos)
        << error;
  }
}

// Each family has one executor, so the old executor selector is an error on
// every family, with every value it used to take, and names what runs now.
TEST(RunSpec, RemovedEngineOptionIsAParseError) {
  for (const char* head : {"rt:bitonic:8", "mp:bitonic:8", "psim:bitonic:8", "sim:bitonic:8"}) {
    for (const char* option : {"engine", "engine=plan", "engine=walk", "engine=lockfree",
                               "engine=locked", "pad=3&engine=plan"}) {
      const std::string text = std::string(head) + "?" + option;
      EXPECT_NE(parse_fail(text).find("option 'engine' was removed: rt always runs the compiled "
                                      "plan, mp the lock-free actors"),
                std::string::npos)
          << text;
    }
  }
}

// --- round-trips -----------------------------------------------------------

void expect_round_trip(const std::string& text) {
  const BackendSpec first = parse_ok(text);
  const std::string canonical = first.to_string();
  const BackendSpec second = parse_ok(canonical);
  EXPECT_EQ(second.to_string(), canonical) << "canonical form not a fixed point for " << text;
}

TEST(RunSpec, RoundTripsCanonicalise) {
  for (const char* text : {
           "rt:bitonic:32", "rt:bitonic:32?threads=8&metrics", "psim:tree:16?diffraction&prism=4",
           "mp:periodic:8?actors=3&pad=3&metrics", "psim:bitonic:32?procs=16&hop=2",
           "psim:tree:64?diffraction=on&prism=8&metrics=on", "psim:balancer:1",
           "sim:bitonic:8?model=fixed&c1=2", "sim:periodic:16?c1=1.5&c2=4.5",
           "mp:bitonic:8?actors=4&pad=4", "mp:tree:32", "mp:bitonic:8?pad=3",
           "psim:bitonic:8?pad=3", "sim:bitonic:8?pad=3",
       }) {
    expect_round_trip(text);
  }
}

// --- exhaustive option cross-products --------------------------------------

TEST(RunSpec, RtOptionCrossProduct) {
  for (const char* structure : {"bitonic", "tree"}) {
    for (const char* fault : {"", "fault=stall:0.5:100"}) {
      for (const char* threads : {"", "threads=16"}) {
        for (const char* metrics : {"", "metrics"}) {
          std::string options;
          for (const char* opt : {fault, threads, metrics}) {
            if (*opt == '\0') continue;
            options += options.empty() ? "?" : "&";
            options += opt;
          }
          expect_round_trip(std::string("rt:") + structure + ":8" + options);
        }
      }
    }
  }
}

TEST(RunSpec, PsimOptionCrossProduct) {
  for (const char* procs : {"", "procs=32"}) {
    for (const char* mode : {"", "diffraction"}) {
      for (const char* prism : {"", "prism=2"}) {
        for (const char* hop : {"", "hop=8"}) {
          for (const char* metrics : {"", "metrics=on"}) {
            std::string options;
            for (const char* opt : {procs, mode, prism, hop, metrics}) {
              if (*opt == '\0') continue;
              options += options.empty() ? "?" : "&";
              options += opt;
            }
            const bool diffracting = std::string(mode) == "diffraction";
            // A slot count without diffraction sizes nothing, and is
            // refused (PsimRefusesPrismWithoutDiffraction).
            if (*prism != '\0' && !diffracting) continue;
            const std::string text =
                std::string("psim:") + (diffracting ? "tree" : "bitonic") + ":16" + options;
            expect_round_trip(text);
          }
        }
      }
    }
  }
}

TEST(RunSpec, SimOptionCrossProduct) {
  for (const char* model : {"", "model=uniform", "model=fixed"}) {
    for (const char* c1 : {"", "c1=2"}) {
      for (const char* c2 : {"", "c2=6"}) {
        for (const char* pad : {"", "pad=4"}) {
          // c2 under model=fixed bounds nothing, and is refused
          // (SimRefusesC2UnderFixedModel).
          if (*c2 != '\0' && std::string(model) == "model=fixed") continue;
          std::string options;
          for (const char* opt : {model, c1, c2, pad}) {
            if (*opt == '\0') continue;
            options += options.empty() ? "?" : "&";
            options += opt;
          }
          expect_round_trip("sim:bitonic:8" + options);
        }
      }
    }
  }
}

TEST(RunSpec, MpOptionCrossProduct) {
  for (const char* actors : {"", "actors=1", "actors=8", "actors=3"}) {
    for (const char* pad : {"", "pad=3"}) {
      for (const char* metrics : {"", "metrics"}) {
        std::string options;
        for (const char* opt : {actors, pad, metrics}) {
          if (*opt == '\0') continue;
          options += options.empty() ? "?" : "&";
          options += opt;
        }
        expect_round_trip("mp:bitonic:8" + options);
      }
    }
  }
}

// --- network construction ---------------------------------------------------

TEST(RunSpec, BuildNetworkHonoursStructureAndPadding) {
  EXPECT_EQ(parse_ok("rt:bitonic:8").build_network().output_width(), 8u);
  EXPECT_EQ(parse_ok("sim:tree:16").build_network().input_width(), 1u);
  EXPECT_EQ(parse_ok("psim:balancer:1").build_network().node_count(), 1u);

  const topo::Network plain = parse_ok("mp:bitonic:8").build_network();
  const topo::Network padded = parse_ok("mp:bitonic:8?pad=3").build_network();
  EXPECT_EQ(padded.depth(), plain.depth() * 2) << "pad=3 prefixes depth*(k-2) pass nodes";
  // pad=2 is the Cor 3.9 regime: no prefix needed.
  EXPECT_EQ(parse_ok("mp:bitonic:8?pad=2").build_network().depth(), plain.depth());
}

TEST(RunSpec, ParseSpecOrDieReturnsParsedSpec) {
  EXPECT_EQ(parse_spec_or_die("mp:tree:8?actors=3").actors, 3u);
}

// --- workspace / deployment options (ws=, tiles=) ---------------------------

TEST(RunSpec, WorkspaceAndTilesParseAndRoundTrip) {
  const BackendSpec ws = parse_ok("rt:bitonic:8?ws=counter-a");
  EXPECT_EQ(ws.ws, "counter-a");
  EXPECT_EQ(ws.tiles, 0u);

  const BackendSpec deploy = parse_ok("rt:bitonic:8?ws=d.0&tiles=4&threads=16");
  EXPECT_EQ(deploy.ws, "d.0");
  EXPECT_EQ(deploy.tiles, 4u);

  expect_round_trip("rt:bitonic:8?ws=counter-a");
  expect_round_trip("rt:bitonic:8?threads=16&ws=d.0&tiles=4");
  // to_string canonicalises the option order; parse(to_string()) is exact.
  const BackendSpec reparsed = parse_spec_or_die(deploy.to_string());
  EXPECT_EQ(reparsed.ws, deploy.ws);
  EXPECT_EQ(reparsed.tiles, deploy.tiles);
}

TEST(RunSpec, WorkspaceOptionsAreRtOnlyAndValidated) {
  // Family gate: ws/tiles configure the rt deployment path only.
  parse_fail("mp:bitonic:8?ws=x");
  parse_fail("sim:bitonic:8?tiles=2");
  // tiles without a workspace has nothing to deploy into.
  parse_fail("rt:bitonic:8?tiles=2");
  // Name discipline (shm charset) and tile bounds.
  parse_fail("rt:bitonic:8?ws=");
  parse_fail("rt:bitonic:8?ws=bad name");
  parse_fail("rt:bitonic:8?ws=" + std::string(64, 'a'));
  parse_fail("rt:bitonic:8?ws=x&tiles=0");
  parse_fail("rt:bitonic:8?ws=x&tiles=33");
  parse_fail("rt:bitonic:8?ws=x&tiles=nope");
}

TEST(RunSpec, PipelineOptionParsesRoundTripsAndGatesOnTiles) {
  // pipeline=1 selects the pipelined deploy topology; bare `pipeline` and
  // on/off spellings follow the usual boolean-option grammar.
  EXPECT_TRUE(parse_ok("rt:bitonic:8?threads=16&ws=p&tiles=2&pipeline=1").pipeline);
  EXPECT_TRUE(parse_ok("rt:bitonic:8?threads=16&ws=p&tiles=2&pipeline").pipeline);
  EXPECT_TRUE(parse_ok("rt:bitonic:8?threads=16&ws=p&tiles=2&pipeline=on").pipeline);
  EXPECT_FALSE(parse_ok("rt:bitonic:8?threads=16&ws=p&tiles=2&pipeline=off").pipeline);
  EXPECT_FALSE(parse_ok("rt:bitonic:8?threads=16&ws=p&tiles=2").pipeline);
  expect_round_trip("rt:bitonic:8?threads=16&ws=p&tiles=2&pipeline=1");

  parse_fail("rt:bitonic:8?threads=16&ws=p&tiles=2&pipeline=maybe");
  // pipeline shapes a multi-process deployment: tiles= is mandatory.
  parse_fail("rt:bitonic:8?threads=16&ws=p&pipeline=1");
}

TEST(RunSpec, DieFaultsAreLegalOnlyForDeployments) {
  // In-process rt has no one to SIGKILL; with ws=&tiles= the deploy layer
  // realizes die: as a real process kill.
  parse_fail("rt:bitonic:8?fault=die:100");
  const BackendSpec deploy =
      parse_ok("rt:bitonic:8?threads=16&ws=x&tiles=2&fault=die:100");
  EXPECT_TRUE(deploy.fault.has_deaths());
  expect_round_trip("rt:bitonic:8?threads=16&ws=x&tiles=2&fault=die:100");
}

}  // namespace
}  // namespace cnet::run
