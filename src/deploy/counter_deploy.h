// The end-to-end multi-process counter deployment: one workspace-resident
// compiled rt plan, N worker-tile processes counting through it, a
// supervisor that realizes the `die:` fault family as real SIGKILL and
// restarts the victim against the persistent workspace — and a merged
// cross-process history that still answers the paper's questions
// (values_form_range, the Def 2.2 step property, the Def 2.4 analysis).
//
// How state survives death: every tile records each completed operation
// into its own workspace-resident history slice and only then
// release-stores a per-(tile,thread) committed cursor — so a SIGKILL can
// lose at most the operations in flight (bounded by the batch size per
// thread), never expose a torn record, and a restarted tile resumes
// exactly where the cursor says. Values claimed from the shared plan by a
// killed thread but not yet recorded are permanently lost; the report
// accounts for every one of them against the plan's per-output counters
// and bounds them by kills x threads x batch. A run with kills therefore
// downgrades its guarantee to counting-only (lossy): unique values, exact
// loss accounting, true step property from the plan's own output counters
// — the honest claim, not a pretend-linearizable one.
#pragma once

#include <cstdint>
#include <string>

#include "lin/checker.h"
#include "lin/history.h"
#include "run/backend_spec.h"

namespace cnet::deploy {

struct DeployOptions {
  /// rt-family spec; must satisfy validate_deploy_spec. spec.ws names the
  /// workspace, spec.tiles (when set) the worker process count.
  run::BackendSpec spec;
  /// Worker processes; 0 = spec.tiles (which itself defaults to 2).
  std::uint32_t tiles = 0;
  std::uint32_t threads_per_tile = 2;
  std::uint64_t total_ops = 100000;
  /// Tokens per next_batch call — also the per-thread bound on values a
  /// SIGKILL can lose. In [1, 8188]: a pipeline response frag of `batch`
  /// values must fit one link frag.
  std::uint32_t batch = 1;
  /// Restart budget: deaths beyond this (expected or not) fail the run.
  std::uint32_t max_restarts = 8;
  /// Deadline for boot plus run, in seconds; must be in (0, 1e6].
  double timeout_s = 60.0;

  /// Pipelined run mode (run_pipeline_deployment): `tiles` ingress tiles
  /// batch token *requests* into credit-based shared-memory links (depth
  /// 128, burst 32), one counter tile drains them through the shared plan,
  /// one record tile commits histories. Requires threads_per_tile == 1
  /// (each pipeline tile is a single stage loop). Also switched on by spec
  /// `pipeline=1`.
  bool pipeline = false;
};

struct DeployReport {
  bool ok = false;    ///< run completed and every applicable check passed
  std::string error;  ///< why the deployment failed (set iff the run died)

  /// The strongest claim the run supports. Kills forfeit linearizability:
  /// a killed thread's claimed-but-unrecorded values are gone, so the
  /// merged history is checked as a lossy counting run instead.
  enum class Guarantee : std::uint8_t { kLinearizable, kCountingOnlyLossy };
  Guarantee guarantee = Guarantee::kLinearizable;

  lin::History history;       ///< merged across tiles, times in ns
  lin::CheckResult analysis;  ///< Def 2.4 over the merged history

  bool counting_ok = false;  ///< range check (no kills) / loss-bounded uniqueness
  std::string counting_message;
  bool step_ok = false;  ///< Def 2.2 over the plan's per-output counts; for
                         ///< lossy runs, relaxed by the in-flight kill bound
                         ///< (tokens vaporized mid-network skew exits)

  std::uint64_t ops_recorded = 0;
  std::uint64_t issued = 0;       ///< tokens the shared plan handed out
  std::uint64_t lost_values = 0;  ///< claimed by a killed thread, never recorded
  std::uint64_t kills = 0;        ///< SIGKILLs the supervisor delivered
  std::uint64_t restarts = 0;     ///< respawns against the same workspace

  std::uint32_t tiles = 0;
  std::uint32_t threads_per_tile = 0;
  double makespan_ns = 0.0;
  double throughput_ops_s = 0.0;

  /// Pipeline-mode extras (zero/false on classic runs).
  bool pipelined = false;
  std::uint64_t dup_requests = 0;  ///< at-least-once replays dropped by record

  std::string to_text() const;
};

/// Whether `spec` can be deployed across processes: rt family, no `metrics` or
/// `degrade=` (tiles keep no obs sink, so either knob would be dropped), a
/// thread budget covering tiles x threads_per_tile (itself at most
/// run::kMaxOsThreads), and a fault plan that is empty or die-only (`die:n`
/// here means a real SIGKILL every n completed operations). Returns false
/// with a diagnostic otherwise.
bool validate_deploy_spec(const run::BackendSpec& spec, std::uint32_t tiles,
                          std::uint32_t threads_per_tile, std::string* error);

/// Lays out the deployment's one workspace (plan, control block, stream
/// cursors and history slices), boots one tile per worker, runs
/// `total_ops` operations through the shared plan, delivers and recovers
/// from SIGKILLs per the spec's `die:` plan, merges the per-stream
/// histories, and checks the result. Must be called from a
/// single-threaded process (fork). Dispatches to run_pipeline_deployment
/// when options.pipeline or spec `pipeline=1` is set.
DeployReport run_counter_deployment(const DeployOptions& options);

/// The pipelined deployment: `tiles` ingress processes publish batched
/// token requests into credit-based shm links (link::Ring), one counter
/// process drains them through the workspace-resident plan, one record
/// process commits per-stream histories — requests stay in flight across
/// stages instead of paying a synchronous handoff per operation. Links are
/// reliable end to end; a `die:` SIGKILL can still vaporize in-flight
/// frags, which the report accounts against kills x 2 x batch (request +
/// response legs) and downgrades to counting-only exactly like the classic
/// runner.
DeployReport run_pipeline_deployment(const DeployOptions& options);

}  // namespace cnet::deploy
