// BackendSpec: one string names a backend family, a topology, and every
// knob the backend needs — the construction half of the unified workload
// harness (see docs/HARNESS.md for the full grammar and option catalogue).
//
//   <family>:<structure>:<width>[?opt[&opt]...]      opt := key[=value]
//
//   rt:tree:32?metrics                         real threads & atomics
//   psim:tree:64?procs=128                     cycle-level multiprocessor
//   sim:periodic:16?c1=1&c2=3&model=uniform    the §2 timing model
//   mp:bitonic:8?actors=4                      actor-per-balancer service
//
// Parsing never aborts: every malformed spec — unknown family, degenerate
// width (0, 1, non-power-of-two), unknown or ill-typed option, an option
// that does not apply to the family — comes back as a parse error that
// echoes the offending spec, so CLI users and config files get diagnostics
// instead of CNET_CHECK aborts from deep inside topo::builders.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fault/plan.h"
#include "rt/network_counter.h"
#include "topo/network.h"

namespace cnet::run {

enum class Family : std::uint8_t {
  kSim,   ///< event-level timing simulator (sim::Simulator)
  kPsim,  ///< deterministic cycle-level multiprocessor (psim::run_workload)
  kRt,    ///< real threads & atomics (rt::NetworkCounter)
  kMp,    ///< actor-per-balancer message passing (mp::NetworkService)
};

enum class Structure : std::uint8_t {
  kBitonic,   ///< Bitonic[w] — width a power of two >= 2
  kPeriodic,  ///< Periodic[w] — width a power of two >= 2
  kTree,      ///< counting tree — width (leaves) a power of two >= 2
  kBalancer,  ///< single fan-in/fan-out-`width` node — width >= 1 (the
              ///< central-counter baseline when width == 1)
};

const char* family_name(Family family);
const char* structure_name(Structure structure);

/// How the sim family draws link delays.
enum class DelayKind : std::uint8_t {
  kUniform,  ///< i.i.d. Uniform[c1, c2]
  kFixed,    ///< every link takes exactly c1 (synchronous executions)
};

/// Parsed, validated description of one backend instance. Fields outside the
/// family's section are ignored by the builders; the parser rejects options
/// that do not apply to the named family so a spec string never silently
/// drops a knob.
struct BackendSpec {
  Family family = Family::kRt;
  Structure structure = Structure::kBitonic;
  std::uint32_t width = 32;

  // -- common ---------------------------------------------------------
  /// Cor 3.12 input padding for ratio bound k (`pad=<k>`); 0 or 2 = none.
  /// sim, psim and mp only, where a pass hop costs link time: rt crosses
  /// pass-through nodes in no time, so its parser refuses the option.
  std::uint32_t pad_ratio = 0;
  /// Attach the family's obs sink (`metrics` / `metrics=on`); rt, psim and
  /// mp only — the sim family has no obs surface.
  bool metrics = false;
  /// `fault=<plan>`: seeded fault injection (mini-grammar and clause/family
  /// support matrix in fault/plan.h). Stalls apply to rt, mp, sim, and psim
  /// (psim charges them as simulated-cycle debits, ns read as cycles);
  /// delivery delays apply to mp and psim; pauses and deaths are mp-only
  /// (plus rt deployments realizing die: as a process kill). Empty plan =
  /// no injection.
  fault::FaultPlan fault{};

  // -- rt -------------------------------------------------------------
  /// `threads=<n>`: upper bound on concurrent caller ids (rt only).
  std::uint32_t max_threads = 256;
  /// `degrade=report`: the rt DegradeGuard downgrades the run's guarantee
  /// to counting-only once the online c2/c1 estimate crosses the Cor 3.9
  /// threshold (rt only; requires metrics=on, since the guard watches the
  /// obs c2/c1 estimator).
  rt::DegradePolicy degrade = rt::DegradePolicy::kOff;
  /// `ws=<name>`: the shm::Workspace a deployment (`cnet_cli deploy`,
  /// deploy/) places the rt counter's shared balancer state in, for its
  /// tile processes to attach (rt only). Only a deployment places one: an
  /// in-process run has no other process to share it with, so run::Runner
  /// and svc::Server refuse a spec that carries it (kDeployOnlyKeys).
  std::string ws;
  /// `tiles=<n>`: worker processes for a deployment (requires ws=; the
  /// deploy layer validates the full combination, see
  /// deploy::validate_deploy_spec).
  std::uint32_t tiles = 0;
  /// `pipeline=1`: run the deployment in pipelined mode — ingress tiles
  /// stream batched requests over credit-based shm links to one counter
  /// tile, a record tile commits histories (deploy::run_pipeline_deployment).
  /// Requires tiles=.
  bool pipeline = false;

  // -- psim -----------------------------------------------------------
  /// `procs=<n>`: simulated processors; 0 = take Workload::threads.
  std::uint32_t procs = 0;
  /// `hop=<n>`: non-memory cycles between nodes.
  std::uint32_t hop_cycles = 4;
  /// `diffraction[=on|off]`: prism diffraction on 1-in/2-out nodes, the
  /// diffracting tree of Figure 6. psim only: rt refuses it, since on real
  /// threads a prism ran far slower than the toggle it falls back to.
  bool diffraction = false;
  /// `prism=<n>`: root prism slot count; 0 = psim's auto sizing.
  std::uint32_t prism_width = 0;

  // -- sim ------------------------------------------------------------
  DelayKind delay = DelayKind::kUniform;  ///< `model=uniform|fixed`
  double c1 = 1.0;                        ///< `c1=<t>` — fastest link time
  double c2 = 2.0;                        ///< `c2=<t>` — slowest link time

  // -- mp -------------------------------------------------------------
  /// `actors=<n>`: worker threads draining the actor run queues.
  std::uint32_t actors = 2;

  /// Canonical spec string: parse(to_string()) reproduces this spec exactly
  /// (options in fixed order, defaults omitted).
  std::string to_string() const;

  /// Builds the named topology (with Cor 3.12 padding applied when
  /// pad_ratio > 2). The spec was validated at parse time, so this cannot
  /// fail for a parsed spec; hand-rolled specs still get builder CHECKs.
  topo::Network build_network() const;

  /// The rt section as rt::NetworkCounter options, observed by `sink`
  /// (borrowed; null = none). Every rt counter a spec builds — the rt
  /// backend's and a deployment's shared one — takes its options from here.
  rt::CounterOptions counter_options(obs::CounterMetrics* sink = nullptr) const;
};

/// Why an in-process run (run::Runner, svc::Server) refuses a spec that
/// carries ws=, and with it tiles= and pipeline=, which both require ws=.
inline constexpr const char* kDeployOnlyKeys =
    "ws=, tiles= and pipeline= shape a multi-process deployment: only `cnet_cli deploy` "
    "places the workspace its tiles attach, and an in-process run would count on the heap "
    "and drop them (run the spec with `cnet_cli deploy`, or drop the three keys)";

/// Parses `text` into `*out`. On failure returns false and, when `error` is
/// non-null, stores a one-line diagnostic that echoes the offending spec.
/// `out` is left in an unspecified state on failure.
bool parse_spec(std::string_view text, BackendSpec* out, std::string* error);

/// For literal specs in benches and tests: parses or CNET_CHECK-fails with
/// the parse diagnostic. User-supplied strings must go through parse_spec.
BackendSpec parse_spec_or_die(std::string_view text);

}  // namespace cnet::run
