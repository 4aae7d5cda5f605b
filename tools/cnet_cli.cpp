// cnet command-line tool: build, inspect, verify, and exercise counting
// networks without writing code.
//
// Topology commands (info, dot, simulate, workload, exhaustive) take the
// legacy positional form. The measurement commands (run, count, stats,
// verify) are spec-driven: anywhere they accept a network they take a
// BackendSpec string — `<family>:<structure>:<width>[?opt[&opt]...]`, e.g.
// `rt:bitonic:32?mcs` or `psim:tree:64?mcs&procs=128` (grammar in
// docs/HARNESS.md). count/stats/verify also still accept the positional
// `<kind> <width>` form, which is rewritten to a spec internally.
//
//   cnet_cli info <bitonic|periodic|tree> <width>
//       structure summary: depth, nodes, layers, uniformity, theory bounds
//   cnet_cli dot <bitonic|periodic|tree> <width>
//       Graphviz rendering on stdout
//   cnet_cli verify <spec | kind width> [trials] [max-per-input]
//       randomized counting-property verification
//   cnet_cli simulate <bitonic|periodic|tree> <width> <tokens> <c2/c1> [seed]
//       random execution in the paper's timing model + Def 2.4 analysis
//   cnet_cli workload <bitonic|tree> <n> <F%> <W> [ops] [seed]
//       the paper's §5 experiment on the simulated multiprocessor
//   cnet_cli exhaustive <bitonic|periodic|tree> <width> <tokens> <c2/c1> [slots] [step]
//       exhaustive schedule search for Def 2.4 violations
//   cnet_cli run <spec> [key=value ...]
//       any workload on any backend through the unified harness; prints the
//       full RunReport. Keys: threads, ops, batch, arrival, rate, burst,
//       gap, f, wait, seed
//   cnet_cli count <spec | kind width> <threads> <ops> [batch]
//       closed-loop counting throughput (sugar for `run` with a closed
//       workload); exit 1 if the counting or step property fails
//   cnet_cli stats <spec | kind width> <threads> <ops> [batch] [trace.json]
//       like count on the rt family, with the observability layer attached:
//       prints the metrics snapshot (docs/OBSERVABILITY.md), the busiest
//       balancers, and the online c2/c1 estimate; optionally dumps a
//       chrome://tracing JSON of sampled token hops
//   cnet_cli serve <spec> [--port N] [--host A] [--uds PATH] [--loops N]
//                  [--unbatched] [--max-batch N] [--max-pending N]
//       serve the backend over TCP (docs/SERVICE.md protocol) — or over a
//       UNIX-domain socket with --uds — until SIGINT, sharded over N
//       independent event loops (default: the hardware concurrency); winds
//       down gracefully — stops accepting, drains every loop, prints the
//       merged serving stats — and exits 130, the same contract as an
//       interrupted run
//   cnet_cli record <spec> <trace.bin> [key=value ...]
//       run a workload on a live backend (rt or mp) with schedule capture:
//       every operation's routing decisions and stalls are recorded and the
//       interleaving is saved as a versioned binary trace (sched/trace.h),
//       replayable deterministically in psim. Same workload keys as `run`.
//   cnet_cli replay <trace.bin>
//       re-execute a captured trace as a fixed psim schedule and print its
//       Def 2.4 analysis plus a history digest — two replays of one trace
//       print identical lines, which is what makes a captured chaos run a
//       regression test
//   cnet_cli search <spec> [--budget N] [--procs N] [--ops N] [--stalls N]
//                   [--stall-cycles N] [--json PATH]
//       bounded adversarial schedule search over stall placements in psim
//       (spec must be the psim family), maximizing the Def 2.4 inversion
//       magnitude; prints a JSON report and rediscovers the paper's §4
//       construction on bitonic networks
//   cnet_cli deploy <spec> [--tiles N] [--threads N] [--ops N] [--batch N]
//                   [--max-restarts N] [--timeout S] [--pipeline]
//       multi-process deployment (docs/DEPLOY.md): the spec's `ws=` names a
//       shared-memory workspace holding the compiled rt plan, worker-tile
//       processes count through it, and a `fault=die:n` clause is realized
//       as a real SIGKILL of a tile every n completed operations followed
//       by a supervisor restart against the persistent workspace; prints
//       the merged cross-process report with its honest guarantee.
//       --pipeline (or spec `pipeline=1`) switches to the pipelined run:
//       ingress tiles stream batched requests over credit-based shm links
//       to a counter tile, a record tile commits histories. Numeric options
//       parse strictly (negative or non-numeric: exit 2)
//
// Exit codes: 0 success, 1 a property check failed, 2 usage error (unknown
// command, malformed spec or workload key), 130 run interrupted by SIGINT
// (after a graceful drain and a partial report).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "deploy/counter_deploy.h"
#include "obs/backend_metrics.h"
#include "psim/machine.h"
#include "run/backend.h"
#include "run/runner.h"
#include "sched/replay.h"
#include "sched/search.h"
#include "sched/trace.h"
#include "svc/server.h"
#include "sim/exhaustive.h"
#include "sim/scenarios.h"
#include "theory/bounds.h"
#include "topo/builders.h"
#include "topo/dot.h"
#include "topo/validate.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace cnet;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cnet_cli info     <bitonic|periodic|tree> <width>\n"
      "  cnet_cli dot      <bitonic|periodic|tree> <width>\n"
      "  cnet_cli verify   <spec | kind width> [trials] [max-per-input]\n"
      "  cnet_cli simulate <bitonic|periodic|tree> <width> <tokens> <c2/c1> [seed]\n"
      "  cnet_cli workload <bitonic|tree> <n> <F%%> <W> [ops] [seed]\n"
      "  cnet_cli exhaustive <bitonic|periodic|tree> <width> <tokens> <c2/c1>"
      " [slots] [step]\n"
      "  cnet_cli run      <spec> [threads=N] [ops=N] [batch=N]\n"
      "                    [arrival=closed|poisson|burst] [rate=X] [burst=N] [gap=X]\n"
      "                    [f=X] [wait=N] [seed=N]\n"
      "  cnet_cli record   <spec> <trace.bin> [key=value ...]   (run keys)\n"
      "  cnet_cli replay   <trace.bin>\n"
      "  cnet_cli search   <spec> [--budget N] [--procs N] [--ops N] [--stalls N]\n"
      "                    [--stall-cycles N] [--json PATH]\n"
      "  cnet_cli count    <spec | kind width> <threads> <ops> [batch]\n"
      "  cnet_cli stats    <spec | kind width> <threads> <ops> [batch] [trace.json]\n"
      "  cnet_cli serve    <spec> [--port N] [--host A] [--uds PATH] [--loops N]\n"
      "                    [--unbatched] [--max-batch N] [--max-pending N]\n"
      "  cnet_cli deploy   <spec> [--tiles N] [--threads N] [--ops N] [--batch N]\n"
      "                    [--max-restarts N] [--timeout S] [--pipeline]\n"
      "spec grammar: <family>:<structure>:<width>[?opt[&opt]...]  (docs/HARNESS.md)\n"
      "  families: sim, psim, rt, mp   structures: bitonic, periodic, tree, balancer\n"
      "  e.g. rt:bitonic:32?mcs   psim:tree:64?mcs&procs=128\n");
  return 2;
}

topo::Network build(const std::string& kind, std::uint32_t width) {
  if (kind == "bitonic") return topo::make_bitonic(width);
  if (kind == "periodic") return topo::make_periodic(width);
  if (kind == "tree") return topo::make_counting_tree(width);
  std::fprintf(stderr, "unknown topology '%s'\n", kind.c_str());
  std::exit(2);
}

/// Parses `text` as a BackendSpec; on failure prints the diagnostic and
/// exits 2 (usage error), so commands can assume a valid spec.
run::BackendSpec parse_spec_or_exit(const std::string& text) {
  run::BackendSpec spec;
  std::string error;
  if (!run::parse_spec(text, &spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return spec;
}

bool looks_like_spec(const char* arg) { return std::strchr(arg, ':') != nullptr; }

constexpr std::uint64_t kU32 = 0xffffffffu;
constexpr std::uint64_t kU64 = ~0ull;

/// Parses `text` strictly as an integer in [0, max]. A sign, a non-digit or
/// an out-of-range value is a usage error that names `what` and exits 2,
/// never a wrapped or zero value.
std::uint64_t parse_count(const std::string& what, const char* text, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t n =
      std::isdigit(static_cast<unsigned char>(*text)) ? std::strtoull(text, &end, 10) : 0;
  if (end == nullptr || *end != '\0' || errno == ERANGE || n > max) {
    std::fprintf(stderr, "%s needs an integer in [0, %llu] (got '%s')\n", what.c_str(),
                 static_cast<unsigned long long>(max), text);
    std::exit(2);
  }
  return n;
}

/// Applies one `key=value` workload argument; an unknown key or an
/// ill-typed value is a usage error (diagnostic on stderr, exit 2).
void apply_workload_arg(const std::string& arg, run::Workload* workload) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) {
    std::fprintf(stderr, "workload argument '%s' is not key=value\n", arg.c_str());
    std::exit(2);
  }
  const std::string key = arg.substr(0, eq);
  const std::string value = arg.substr(eq + 1);
  const std::string what = "workload key '" + key + "'";
  const auto as_count = [&](std::uint64_t max) { return parse_count(what, value.c_str(), max); };
  const auto as_f64 = [&] {
    char* end = nullptr;
    const double x = std::strtod(value.c_str(), &end);
    if (*end != '\0') {
      std::fprintf(stderr, "%s has a malformed value '%s'\n", what.c_str(), value.c_str());
      std::exit(2);
    }
    return x;
  };
  if (key == "threads") {
    workload->threads = static_cast<std::uint32_t>(as_count(kU32));
  } else if (key == "ops") {
    workload->total_ops = as_count(kU64);
  } else if (key == "batch") {
    workload->batch = static_cast<std::uint32_t>(as_count(kU32));
  } else if (key == "arrival") {
    if (value == "closed") {
      workload->arrival = run::Arrival::kClosed;
    } else if (value == "poisson") {
      workload->arrival = run::Arrival::kPoisson;
    } else if (value == "burst") {
      workload->arrival = run::Arrival::kBurst;
    } else {
      std::fprintf(stderr, "arrival '%s' is not closed, poisson, or burst\n", value.c_str());
      std::exit(2);
    }
  } else if (key == "rate") {
    workload->rate = as_f64();
  } else if (key == "burst") {
    workload->burst_size = static_cast<std::uint32_t>(as_count(kU32));
  } else if (key == "gap") {
    workload->burst_gap = as_f64();
  } else if (key == "f") {
    workload->delayed_fraction = as_f64();
  } else if (key == "wait") {
    workload->wait = as_count(kU64);
  } else if (key == "seed") {
    workload->seed = as_count(kU64);
  } else {
    std::fprintf(stderr,
                 "unknown workload key '%s' (valid: threads, ops, batch, arrival, rate,"
                 " burst, gap, f, wait, seed)\n",
                 key.c_str());
    std::exit(2);
  }
}

int cmd_info(const std::string& kind, std::uint32_t width) {
  const topo::Network net = build(kind, width);
  std::printf("%s\n", net.name().c_str());
  std::printf("  inputs x outputs : %u x %u\n", net.input_width(), net.output_width());
  std::printf("  depth (links)    : %u\n", net.depth());
  std::printf("  balancing nodes  : %zu\n", net.node_count());
  std::printf("  uniform (Def 2.1): %s\n", net.is_uniform() ? "yes" : "no");
  std::printf("  layers           : ");
  for (const auto& layer : net.layers()) std::printf("%zu ", layer.size());
  std::printf("\n");
  std::printf("theory (c1 = 1):\n");
  std::printf("  linearizable for any timing with c2 <= 2 (Cor 3.9)\n");
  for (double c2 : {3.0, 4.0, 8.0}) {
    std::printf("  c2 = %.0f: safe finish-start separation %.0f (Thm 3.6), start-start %.0f"
                " (Lemma 3.7), padding for always-linearizable %u nodes (Cor 3.12)\n",
                c2, theory::finish_start_separation(net.depth(), 1.0, c2),
                theory::start_start_separation(net.depth(), 1.0, c2),
                topo::padding_prefix_length(net.depth(), static_cast<std::uint32_t>(c2)));
  }
  return 0;
}

int cmd_verify(const topo::Network& net, std::uint64_t trials, std::uint64_t max_per_input) {
  Rng rng(0xc0ffee);
  const topo::VerifyResult result = topo::verify_counting_random(net, max_per_input, trials, rng);
  if (result.ok) {
    std::printf("OK: %s counts on %llu random input vectors (up to %llu tokens/input)\n",
                net.name().c_str(), static_cast<unsigned long long>(result.vectors_checked),
                static_cast<unsigned long long>(max_per_input));
    return 0;
  }
  std::printf("FAIL: %s\n", result.message.c_str());
  return 1;
}

int cmd_simulate(const std::string& kind, std::uint32_t width, std::uint32_t tokens,
                 double ratio, std::uint64_t seed) {
  const topo::Network net = build(kind, width);
  sim::RandomExecutionParams params;
  params.tokens = tokens;
  params.c1 = 1.0;
  params.c2 = ratio;
  params.mean_interarrival = 0.05;
  params.seed = seed;
  const sim::ScenarioResult result = sim::random_execution(net, params);
  std::printf("%s, %u tokens, c2/c1 = %.2f, seed %llu\n", net.name().c_str(), tokens, ratio,
              static_cast<unsigned long long>(seed));
  std::printf("  non-linearizable ops: %llu (%.4f%%), worst inversion %llu\n",
              static_cast<unsigned long long>(result.analysis.nonlinearizable_ops),
              result.analysis.fraction() * 100.0,
              static_cast<unsigned long long>(result.analysis.worst_inversion));
  std::printf("  theory: violations %s for this ratio (threshold 2.0)\n",
              theory::violation_constructible(1.0, ratio) ? "constructible" : "impossible");
  return 0;
}

int cmd_workload(const std::string& kind, std::uint32_t n, double f_percent, std::uint64_t wait,
                 std::uint64_t ops, std::uint64_t seed) {
  const bool tree = kind == "tree";
  const topo::Network net = tree ? topo::make_counting_tree(32) : topo::make_bitonic(32);
  psim::MachineParams params;
  params.processors = n;
  params.total_ops = ops;
  params.delayed_fraction = f_percent / 100.0;
  params.wait_cycles = wait;
  params.use_diffraction = tree;
  params.seed = seed;
  const psim::MachineResult result = psim::run_workload(net, params);
  std::printf("%s, n = %u, F = %.0f%%, W = %llu, %llu ops (seed %llu)\n", net.name().c_str(), n,
              f_percent, static_cast<unsigned long long>(wait),
              static_cast<unsigned long long>(ops), static_cast<unsigned long long>(seed));
  std::printf("  avg Tog             : %.1f cycles\n", result.avg_tog);
  std::printf("  avg c2/c1 (Fig 7)   : %.2f\n", result.avg_c2_over_c1);
  std::printf("  non-linearizable ops: %llu of %zu (%.3f%%)\n",
              static_cast<unsigned long long>(result.analysis.nonlinearizable_ops),
              result.history.size(), result.analysis.fraction() * 100.0);
  std::printf("  toggles/diffractions: %llu / %llu\n",
              static_cast<unsigned long long>(result.toggles),
              static_cast<unsigned long long>(result.diffractions));
  std::printf("  makespan            : %llu cycles\n",
              static_cast<unsigned long long>(result.makespan));
  return 0;
}

int cmd_exhaustive(const std::string& kind, std::uint32_t width, std::uint32_t tokens,
                   double ratio, std::uint32_t slots, double step) {
  const topo::Network net = build(kind, width);
  sim::ExhaustiveParams params;
  params.tokens = tokens;
  params.c1 = 1.0;
  params.c2 = ratio;
  params.entry_slots = slots;
  params.entry_step = step;
  const sim::ExhaustiveResult result = sim::exhaustive_search(net, params);
  std::printf("%s, %u tokens, c2/c1 = %.2f, %u-slot lattice (step %.3f)\n", net.name().c_str(),
              tokens, ratio, slots, step);
  std::printf("  schedules checked: %llu\n",
              static_cast<unsigned long long>(result.schedules_checked));
  if (!result.violation_found) {
    std::printf("  no violating schedule exists in this class\n");
    return 0;
  }
  std::printf("  VIOLATION — witness schedule:\n");
  for (std::size_t t = 0; t < result.witness.tokens.size(); ++t) {
    const auto& token = result.witness.tokens[t];
    std::printf("    T%zu: x%u @ %.3f, delays [", t, token.input, token.entry);
    for (std::size_t l = 0; l < token.link_delays.size(); ++l) {
      std::printf("%s%.2f", l ? " " : "", token.link_delays[l]);
    }
    std::printf("] -> value %llu at %.3f\n", static_cast<unsigned long long>(token.value),
                token.exit);
  }
  return 1;
}

/// Set by the SIGINT handler; the Runner's issuers poll it between ops.
std::atomic<bool> g_interrupt{false};

void on_sigint(int) { g_interrupt.store(true, std::memory_order_relaxed); }

int cmd_run(const run::BackendSpec& spec, const run::Workload& workload) {
  std::unique_ptr<run::CountingBackend> backend = run::make_backend(spec);
  run::Runner runner;
  // SIGINT means "stop measuring", not "tear the process down": issuers
  // wind down at the next op boundary, the backend drains, and the partial
  // report still prints — exit 130, shell convention for death-by-SIGINT.
  g_interrupt.store(false, std::memory_order_relaxed);
  auto* previous = std::signal(SIGINT, on_sigint);
  const run::RunReport report = runner.run(*backend, workload, &g_interrupt);
  std::signal(SIGINT, previous);
  if (!report.ok) {
    std::fprintf(stderr, "%s", report.to_text().c_str());
    return 2;
  }
  std::fputs(report.to_text().c_str(), stdout);
  if (report.interrupted) return 130;
  return report.counting_ok && report.step_ok ? 0 : 1;
}

int cmd_record(const run::BackendSpec& spec, const std::string& trace_path,
               const run::Workload& workload) {
  std::unique_ptr<run::CountingBackend> backend = run::make_backend(spec);
  sched::Recorder recorder;
  run::Runner runner;
  g_interrupt.store(false, std::memory_order_relaxed);
  auto* previous = std::signal(SIGINT, on_sigint);
  run::RunReport report = runner.run(*backend, workload, &g_interrupt, &recorder);
  std::signal(SIGINT, previous);
  if (!report.ok) {
    std::fprintf(stderr, "%s", report.to_text().c_str());
    return 2;
  }
  const sched::Trace trace =
      recorder.finish(report.history, spec.to_string(), workload.to_string());
  std::string error;
  if (!trace.save(trace_path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  report.schedule_ref = trace_path;
  std::fputs(report.to_text().c_str(), stdout);
  std::printf("captured : %zu tokens -> %s (replay with `cnet_cli replay %s`)\n",
              trace.tokens.size(), trace_path.c_str(), trace_path.c_str());
  if (report.interrupted) return 130;
  return report.counting_ok && report.step_ok ? 0 : 1;
}

/// FNV-1a over the replayed history — one line that two runs of `replay`
/// must print identically for the determinism claim to be checkable by eye
/// (and by the CI round's diff).
std::uint64_t history_digest(const lin::History& history) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const lin::Operation& op : history) {
    mix(static_cast<std::uint64_t>(op.start));
    mix(static_cast<std::uint64_t>(op.end));
    mix(op.value);
    mix(op.actor);
  }
  return h;
}

int cmd_replay(const std::string& trace_path) {
  sched::Trace trace;
  std::string error;
  if (!sched::Trace::load(trace_path, &trace, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const run::BackendSpec spec = parse_spec_or_exit(trace.spec);
  const topo::Network net = spec.build_network();
  sched::ReplayOptions options;
  options.hop_cycles = spec.hop_cycles;
  const sched::ReplayResult result = sched::replay(net, trace, options);
  std::printf("trace    : %s (%zu tokens)\n", trace_path.c_str(), trace.tokens.size());
  std::printf("spec     : %s\n", trace.spec.c_str());
  std::printf("workload : %s\n", trace.workload.c_str());
  std::printf("replayed : %zu ops, makespan %llu cycles\n", result.history.size(),
              static_cast<unsigned long long>(result.makespan));
  std::printf("Def 2.4  : %llu non-linearizable of %llu (%.4f%%), worst inversion %llu\n",
              static_cast<unsigned long long>(result.analysis.nonlinearizable_ops),
              static_cast<unsigned long long>(result.analysis.total_ops),
              result.analysis.fraction() * 100.0,
              static_cast<unsigned long long>(result.analysis.worst_inversion));
  std::printf("digest   : %016llx\n",
              static_cast<unsigned long long>(history_digest(result.history)));
  return 0;
}

int cmd_search(const run::BackendSpec& spec, int argc, char** argv, int base) {
  if (spec.family != run::Family::kPsim) {
    std::fprintf(stderr,
                 "search enumerates schedules in the cycle simulator: the spec must use"
                 " the psim family (got '%s')\n",
                 spec.to_string().c_str());
    return 2;
  }
  sched::SearchOptions options;
  options.procs = spec.procs != 0 ? spec.procs : 4;
  options.hop_cycles = spec.hop_cycles;
  std::string json_path;
  for (int i = base; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--budget") {
      options.budget = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--procs") {
      options.procs = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--ops") {
      options.ops_per_proc = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--stalls") {
      options.max_stalls = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--stall-cycles") {
      options.stall_cycles = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--json") {
      json_path = value();
    } else {
      std::fprintf(stderr, "unknown search option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (options.procs == 0 || options.ops_per_proc == 0 || options.budget == 0 ||
      options.max_stalls == 0) {
    std::fprintf(stderr, "search needs --procs, --ops, --stalls, and --budget all >= 1\n");
    return 2;
  }
  const topo::Network net = spec.build_network();
  const sched::SearchResult result = sched::search(net, options);
  const std::string json = result.to_json(spec.to_string());
  std::fputs(json.c_str(), stdout);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return 0;
}

int cmd_serve(const run::BackendSpec& spec, int argc, char** argv, int base) {
  svc::ServerOptions options;
  for (int i = base; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      options.port = static_cast<std::uint16_t>(std::atoi(value()));
    } else if (arg == "--host") {
      options.host = value();
    } else if (arg == "--uds") {
      options.uds_path = value();
    } else if (arg == "--loops") {
      const int loops = std::atoi(value());
      if (loops < 1) {
        std::fprintf(stderr,
                     "serve --loops must be >= 1 (got '%d'): the server needs at"
                     " least one event loop; omit the flag for the default"
                     " (hardware concurrency)\n",
                     loops);
        return 2;
      }
      options.loops = static_cast<std::uint32_t>(loops);
    } else if (arg == "--unbatched") {
      options.batching = false;
    } else if (arg == "--max-batch") {
      options.max_batch = std::max(1, std::atoi(value()));
    } else if (arg == "--max-pending") {
      options.max_pending = std::max(1, std::atoi(value()));
    } else {
      std::fprintf(stderr, "unknown serve option '%s'\n", arg.c_str());
      return 2;
    }
  }
  std::unique_ptr<run::CountingBackend> backend = run::make_backend(spec);
  svc::Server server(*backend, options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const std::string endpoint = options.uds_path.empty()
                                   ? options.host + ":" + std::to_string(server.port())
                                   : "uds " + options.uds_path;
  std::printf("serving %s on %s (%u loop%s, %s, max-batch %u, max-pending %u)\n",
              spec.to_string().c_str(), endpoint.c_str(), server.loops(),
              server.loops() == 1 ? "" : "s",
              options.batching ? "batched" : "unbatched", options.max_batch,
              options.max_pending);
  std::fflush(stdout);

  // The same SIGINT contract as `run`: the signal means "stop serving", not
  // "tear the process down" — stop accepting, drain in-flight work, report,
  // and exit 130.
  g_interrupt.store(false, std::memory_order_relaxed);
  auto* previous = std::signal(SIGINT, on_sigint);
  while (!g_interrupt.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::signal(SIGINT, previous);
  server.stop();

  const svc::Server::Stats stats = server.stats();
  std::printf("shut down: %llu conns, %llu requests (%llu ok, %llu timeout, %llu shed,"
              " %llu protocol errors), %llu batches over %llu wakes (largest %llu)%s\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.responses_ok),
              static_cast<unsigned long long>(stats.responses_timeout),
              static_cast<unsigned long long>(stats.responses_shed),
              static_cast<unsigned long long>(stats.protocol_errors),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.wakes),
              static_cast<unsigned long long>(stats.largest_batch),
              server.timing_tripped() ? "; timing shed LATCHED" : "");
  return 130;
}

int cmd_deploy(const run::BackendSpec& spec, int argc, char** argv, int base) {
  deploy::DeployOptions options;
  options.spec = spec;
  bool explicit_threads = false;
  for (int i = base; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Numbers parse strictly: a negative, non-numeric or out-of-range
    // value is a usage error, not a wrapped or zero value.
    const auto count = [&](std::uint64_t max) {
      return parse_count("deploy: " + arg, value(), max);
    };
    const auto seconds = [&] {
      const char* text = value();
      char* end = nullptr;
      const double n =
          std::isdigit(static_cast<unsigned char>(*text)) ? std::strtod(text, &end) : 0.0;
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "deploy: %s needs a non-negative number of seconds (got '%s')\n",
                     arg.c_str(), text);
        std::exit(2);
      }
      return n;
    };
    if (arg == "--tiles") {
      options.tiles = static_cast<std::uint32_t>(count(kU32));
    } else if (arg == "--threads") {
      options.threads_per_tile = static_cast<std::uint32_t>(count(kU32));
      explicit_threads = true;
    } else if (arg == "--ops") {
      options.total_ops = count(kU64);
    } else if (arg == "--batch") {
      options.batch = static_cast<std::uint32_t>(count(kU32));
    } else if (arg == "--max-restarts") {
      options.max_restarts = static_cast<std::uint32_t>(count(kU32));
    } else if (arg == "--timeout") {
      options.timeout_s = seconds();
    } else if (arg == "--pipeline") {
      options.pipeline = true;
    } else {
      std::fprintf(stderr, "unknown deploy option '%s'\n", arg.c_str());
      return 2;
    }
  }
  // Pipeline tiles are single-stage loops; unless the user pinned a thread
  // count, default it to 1 instead of tripping the mode's validation.
  if ((options.pipeline || options.spec.pipeline) && !explicit_threads) {
    options.threads_per_tile = 1;
  }
  // Spec and option errors come back in report.error, before any fork.
  const deploy::DeployReport report = deploy::run_counter_deployment(options);
  if (!report.ok && !report.error.empty()) {
    std::fprintf(stderr, "%s", report.to_text().c_str());
    return 2;
  }
  std::fputs(report.to_text().c_str(), stdout);
  return report.ok ? 0 : 1;
}

int cmd_stats(const run::BackendSpec& spec, const run::Workload& workload,
              const std::string& trace_path) {
#if !CNET_OBS
  (void)spec;
  (void)workload;
  (void)trace_path;
  std::fprintf(stderr, "stats requires a CNET_OBS=1 build (reconfigure with -DCNET_OBS=ON)\n");
  return 2;
#else
  if (spec.family != run::Family::kRt) {
    std::fprintf(stderr, "stats attaches the rt observability sink: the spec must use the"
                         " rt family (got '%s')\n",
                 spec.to_string().c_str());
    return 2;
  }
  obs::CounterMetrics metrics;
  // stats runs are short and diagnostic: sample densely so the latency
  // histograms and the trace are well-populated even for small `ops`.
  metrics.sample_period = 8;
  if (!trace_path.empty()) metrics.trace.enable();
  run::RtBackend backend(spec, &metrics);
  run::Runner runner;
  const run::RunReport report = runner.run(backend, workload);
  if (!report.ok) {
    std::fprintf(stderr, "%s", report.to_text().c_str());
    return 2;
  }

  std::printf("%s, %s\n\n", backend.network().name().c_str(),
              workload.to_string().c_str());
  std::fputs(report.metrics.to_text().c_str(), stdout);

  // Busiest balancers: where the token stream actually contends.
  const std::vector<std::uint64_t> visits = metrics.balancer_visits.values();
  std::vector<std::uint32_t> order(visits.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&visits](std::uint32_t a, std::uint32_t b) { return visits[a] > visits[b]; });
  std::printf("\nbusiest balancers (node: visits):\n");
  const std::size_t top = std::min<std::size_t>(order.size(), 8);
  for (std::size_t i = 0; i < top; ++i) {
    if (visits[order[i]] == 0) break;
    std::printf("  %4u: %llu\n", order[i],
                static_cast<unsigned long long>(visits[order[i]]));
  }
  std::printf("\nonline c2/c1 estimate: %.2f (hop-latency p90/p10; Cor 3.9 needs <= 2)\n",
              report.c2c1_estimate);
  std::printf("throughput: %.2f M items/s over %.0f ns\n", report.throughput * 1e3,
              report.makespan);

  if (!trace_path.empty()) {
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write '%s'\n", trace_path.c_str());
      return 1;
    }
    const std::string json = metrics.trace.dump_chrome_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("trace: %llu events -> %s (load in chrome://tracing)\n",
                static_cast<unsigned long long>(metrics.trace.size()), trace_path.c_str());
  }
  return report.counting_ok && report.step_ok ? 0 : 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string kind = argv[2];
  if (command == "info" && argc >= 4) {
    return cmd_info(kind, static_cast<std::uint32_t>(std::atoi(argv[3])));
  }
  if (command == "dot" && argc >= 4) {
    std::cout << topo::to_dot(build(kind, static_cast<std::uint32_t>(std::atoi(argv[3]))));
    return 0;
  }
  if (command == "verify") {
    // Spec form: `verify <spec> [trials] [max]`. Positional form:
    // `verify <kind> <width> [trials] [max]`, rewritten to a sim spec (the
    // family is irrelevant — verify only needs the topology).
    std::string text;
    int base;
    if (looks_like_spec(argv[2])) {
      text = kind;
      base = 3;
    } else if (argc >= 4) {
      text = "sim:" + kind + ":" + argv[3];
      base = 4;
    } else {
      return usage();
    }
    const run::BackendSpec spec = parse_spec_or_exit(text);
    return cmd_verify(spec.build_network(),
                      argc > base ? std::strtoull(argv[base], nullptr, 10) : 500,
                      argc > base + 1 ? std::strtoull(argv[base + 1], nullptr, 10) : 32);
  }
  if (command == "simulate" && argc >= 6) {
    return cmd_simulate(kind, static_cast<std::uint32_t>(std::atoi(argv[3])),
                        static_cast<std::uint32_t>(std::atoi(argv[4])), std::atof(argv[5]),
                        argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 1);
  }
  if (command == "exhaustive" && argc >= 6) {
    return cmd_exhaustive(kind, static_cast<std::uint32_t>(std::atoi(argv[3])),
                          static_cast<std::uint32_t>(std::atoi(argv[4])), std::atof(argv[5]),
                          argc > 6 ? static_cast<std::uint32_t>(std::atoi(argv[6])) : 8,
                          argc > 7 ? std::atof(argv[7]) : 0.5);
  }
  if (command == "workload" && argc >= 6) {
    return cmd_workload(kind, static_cast<std::uint32_t>(std::atoi(argv[3])),
                        std::atof(argv[4]), std::strtoull(argv[5], nullptr, 10),
                        argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 5000,
                        argc > 7 ? std::strtoull(argv[7], nullptr, 10) : 1);
  }
  if (command == "serve") {
    return cmd_serve(parse_spec_or_exit(kind), argc, argv, 3);
  }
  if (command == "deploy") {
    return cmd_deploy(parse_spec_or_exit(kind), argc, argv, 3);
  }
  if (command == "run") {
    const run::BackendSpec spec = parse_spec_or_exit(kind);
    run::Workload workload;
    for (int i = 3; i < argc; ++i) apply_workload_arg(argv[i], &workload);
    return cmd_run(spec, workload);
  }
  if (command == "record") {
    if (argc < 4) return usage();
    const run::BackendSpec spec = parse_spec_or_exit(kind);
    run::Workload workload;
    for (int i = 4; i < argc; ++i) apply_workload_arg(argv[i], &workload);
    return cmd_record(spec, argv[3], workload);
  }
  if (command == "replay") {
    return cmd_replay(kind);
  }
  if (command == "search") {
    return cmd_search(parse_spec_or_exit(kind), argc, argv, 3);
  }
  if (command == "count" || command == "stats") {
    // `<spec> <threads> <ops> [batch]` or `<kind> <width> <threads> <ops>
    // [batch]`, plus stats' optional trace.json tail; the positional form
    // defaults to the rt family (the original behaviour of both commands).
    std::string text;
    int base;
    if (looks_like_spec(argv[2]) && argc >= 5) {
      text = kind;
      base = 3;
    } else if (argc >= 6) {
      text = "rt:" + kind + ":" + argv[3];
      base = 4;
    } else {
      return usage();
    }
    run::Workload workload;
    workload.threads =
        std::max(1u, static_cast<std::uint32_t>(parse_count("threads", argv[base], kU32)));
    workload.total_ops = parse_count("ops", argv[base + 1], kU64);
    workload.batch =
        argc > base + 2
            ? std::max(1u, static_cast<std::uint32_t>(parse_count("batch", argv[base + 2], kU32)))
            : 16;
    if (command == "count") {
      if (argc > base + 3) return usage();
      return cmd_run(parse_spec_or_exit(text), workload);
    }
    const std::string trace_path = argc > base + 3 ? argv[base + 3] : "";
    return cmd_stats(parse_spec_or_exit(text), workload, trace_path);
  }
  return usage();
}
