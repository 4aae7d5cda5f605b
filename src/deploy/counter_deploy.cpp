#include "deploy/counter_deploy.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <map>
#include <new>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "deploy/deploy_internal.h"
#include "deploy/supervisor.h"
#include "deploy/topology.h"
#include "rt/routing_plan.h"
#include "run/workload.h"
#include "shm/workspace.h"
#include "topo/validate.h"

namespace cnet::deploy {
namespace {

using detail::ControlBlock;
using detail::OpRecord;
using detail::StreamCursor;
using detail::counter_options;
using detail::hist_name;
using detail::kBoot;
using detail::kCtlObj;
using detail::kCursorObj;
using detail::kDone;
using detail::kMaxTiles;
using detail::kNoHold;
using detail::kPlanObj;
using detail::kReady;
using detail::now_ns;

/// Blocks while the globally committed count sits at/past the supervisor's
/// kill watermark — someone is owed a SIGKILL before anyone proceeds. The
/// sleep matters on small machines: a spinning worker could starve the
/// supervisor off the core that must deliver the kill. Returns false when
/// the run is stopping.
bool wait_for_hold(ControlBlock* ctl, const StreamCursor* cursors,
                   std::uint32_t total_threads) {
  while (true) {
    const std::uint64_t hold = ctl->hold.load(std::memory_order_acquire);
    if (hold == kNoHold) return true;
    std::uint64_t committed = 0;
    for (std::uint32_t i = 0; i < total_threads; ++i) {
      committed += cursors[i].committed.load(std::memory_order_acquire);
    }
    if (committed < hold) return true;
    if (ctl->stop.load(std::memory_order_acquire) != 0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Per-thread worker loop inside a tile: resume from the committed cursor,
/// batch tokens through the shared plan, record-then-commit each value.
void tile_thread(rt::RoutingPlan& plan, ControlBlock* ctl, StreamCursor* cursors,
                 std::uint32_t total_threads, OpRecord* slice, std::uint64_t quota,
                 std::uint32_t gid, std::uint32_t batch) {
  StreamCursor& cursor = cursors[gid];
  const std::uint32_t input = gid % plan.input_width();
  std::vector<std::uint64_t> values(batch);
  std::uint64_t k = cursor.committed.load(std::memory_order_acquire);
  while (k < quota) {
    if (ctl->stop.load(std::memory_order_acquire) != 0) return;
    if (!wait_for_hold(ctl, cursors, total_threads)) return;
    const auto span = static_cast<std::size_t>(std::min<std::uint64_t>(batch, quota - k));
    const std::uint64_t start = now_ns();
    plan.next_batch(gid, input, std::span<std::uint64_t>(values.data(), span));
    const std::uint64_t end = now_ns();
    for (std::size_t j = 0; j < span; ++j) {
      OpRecord& rec = slice[k + j];
      rec.start_ns = start;
      rec.end_ns = end;
      rec.value = values[j];
      rec.actor = gid;
      cursor.committed.store(k + j + 1, std::memory_order_release);
    }
    k += span;
  }
}

/// The forked tile body: re-attach the workspace from the inherited fd,
/// resolve every object by name, adopt the shared plan state, and count.
/// Exit codes: 0 done, 10 attach failed, 11 an object is missing.
int tile_main(const DeployOptions& options, std::uint32_t tiles, std::uint32_t tile,
              int ws_fd) {
  shm::Workspace ws;
  std::string error;
  if (!shm::Workspace::attach(ws_fd, &ws, &error)) return 10;
  std::uint64_t plan_footprint = 0;
  void* plan_base = ws.find(kPlanObj, &plan_footprint);
  auto* ctl = static_cast<ControlBlock*>(ws.find(kCtlObj));
  auto* cursors = static_cast<StreamCursor*>(ws.find(kCursorObj));
  auto* hist = static_cast<OpRecord*>(ws.find(hist_name(tile)));
  if (plan_base == nullptr || ctl == nullptr || cursors == nullptr || hist == nullptr) {
    return 11;
  }

  const topo::Network net = options.spec.build_network();
  rt::RoutingPlan plan(net, counter_options(options.spec),
                       rt::PlanArena{plan_base, plan_footprint, /*attach=*/true});

  ctl->tiles[tile].state.store(kReady, std::memory_order_release);
  while (ctl->go.load(std::memory_order_acquire) == 0) {
    if (ctl->stop.load(std::memory_order_acquire) != 0) return 0;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  const std::uint32_t T = options.threads_per_tile;
  const std::vector<std::uint64_t> tile_quota = run::issuer_quotas(options.total_ops, tiles);
  const std::vector<std::uint64_t> thread_quota = run::issuer_quotas(tile_quota[tile], T);
  std::vector<std::thread> threads;
  threads.reserve(T);
  std::uint64_t slice_base = 0;
  for (std::uint32_t t = 0; t < T; ++t) {
    const std::uint32_t gid = tile * T + t;
    OpRecord* slice = hist + slice_base;
    threads.emplace_back(tile_thread, std::ref(plan), ctl, cursors, tiles * T, slice,
                         thread_quota[t], gid, options.batch);
    slice_base += thread_quota[t];
  }
  for (std::thread& th : threads) th.join();

  ctl->tiles[tile].state.store(kDone, std::memory_order_release);
  return 0;
}

DeployReport failed(DeployReport report, const std::string& why) {
  report.ok = false;
  report.error = why;
  return report;
}

}  // namespace

bool validate_deploy_spec(const run::BackendSpec& spec, std::uint32_t tiles,
                          std::uint32_t threads_per_tile, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = "deploy: " + why;
    return false;
  };
  if (spec.family != run::Family::kRt) {
    return fail("only the rt family deploys across processes (got " +
                std::string(run::family_name(spec.family)) + ")");
  }
  if (spec.mcs) {
    return fail("mcs balancers cannot cross processes (MCS queue nodes live on caller "
                "stacks, which are process-private)");
  }
  if (spec.diffraction) {
    return fail("diffraction cannot cross processes (prism pairing camps on live peers; "
                "a SIGKILLed partner would poison slots)");
  }
  if (tiles == 0 || tiles > kMaxTiles) {
    return fail("tiles must be in [1, " + std::to_string(kMaxTiles) + "] (got " +
                std::to_string(tiles) + ")");
  }
  if (threads_per_tile == 0) return fail("threads_per_tile must be >= 1");
  const std::uint64_t total = std::uint64_t{tiles} * threads_per_tile;
  if (total > spec.max_threads) {
    return fail("tiles x threads_per_tile = " + std::to_string(total) +
                " exceeds the spec's thread bound " + std::to_string(spec.max_threads) +
                " (raise threads=)");
  }
  if (spec.fault.has_stalls() || spec.fault.has_pauses() || spec.fault.has_delays()) {
    return fail("only the die: fault clause deploys (it becomes a real SIGKILL); "
                "stall/pause/delay are in-process mechanisms");
  }
  return true;
}

DeployReport run_counter_deployment(const DeployOptions& options) {
  if (options.pipeline || options.spec.pipeline) return run_pipeline_deployment(options);
  DeployReport report;
  const std::uint32_t tiles = options.tiles != 0          ? options.tiles
                              : options.spec.tiles != 0   ? options.spec.tiles
                                                          : 2;
  const std::uint32_t T = options.threads_per_tile;
  report.tiles = tiles;
  report.threads_per_tile = T;

  std::string error;
  if (!validate_deploy_spec(options.spec, tiles, T, &error)) return failed(report, error);
  if (options.batch == 0) return failed(report, "deploy: batch must be >= 1");
  if (options.total_ops < std::uint64_t{tiles} * T) {
    return failed(report, "deploy: total_ops must cover at least one op per thread");
  }

  const topo::Network net = options.spec.build_network();
  const rt::CounterOptions copts = counter_options(options.spec);
  const std::size_t plan_footprint = rt::RoutingPlan::state_footprint(net, copts);
  const std::vector<std::uint64_t> tile_quota = run::issuer_quotas(options.total_ops, tiles);
  const std::uint32_t total_threads = tiles * T;
  const std::string ws_name = options.spec.ws.empty() ? "cnet-deploy" : options.spec.ws;

  // Declare and validate the deployment before anything boots.
  Builder builder;
  builder.workspace(ws_name);
  builder.object(kPlanObj, ws_name, rt::RoutingPlan::state_align(),
                 std::max<std::uint64_t>(plan_footprint, 1), /*multi_writer=*/true);
  builder.object(kCtlObj, ws_name, alignof(ControlBlock), sizeof(ControlBlock),
                 /*multi_writer=*/true);
  builder.object(kCursorObj, ws_name, alignof(StreamCursor),
                 std::uint64_t{total_threads} * sizeof(StreamCursor), /*multi_writer=*/true);
  for (std::uint32_t i = 0; i < tiles; ++i) {
    builder.object(hist_name(i), ws_name, alignof(OpRecord),
                   std::max<std::uint64_t>(tile_quota[i], 1) * sizeof(OpRecord));
  }
  for (std::uint32_t i = 0; i < tiles; ++i) {
    builder.tile("worker" + std::to_string(i), i * T, T)
        .uses(kPlanObj, MapMode::kReadWrite)
        .uses(kCtlObj, MapMode::kReadWrite)
        .uses(kCursorObj, MapMode::kReadWrite)
        .uses(hist_name(i), MapMode::kReadWrite);
  }
  Topology topology;
  if (!builder.finish(&topology, &error)) return failed(report, error);
  std::map<std::string, shm::Workspace> workspaces;
  if (!materialize(topology, &workspaces, &error)) return failed(report, error);
  shm::Workspace& ws = workspaces.at(ws_name);

  // Construct the shared state once, supervisor-side; tiles only attach.
  std::uint64_t found_footprint = 0;
  void* plan_base = ws.find(kPlanObj, &found_footprint);
  rt::RoutingPlan plan(net, copts, rt::PlanArena{plan_base, found_footprint, false});
  auto* ctl = new (ws.find(kCtlObj)) ControlBlock();
  auto* cursors = static_cast<StreamCursor*>(ws.find(kCursorObj));
  for (std::uint32_t i = 0; i < total_threads; ++i) new (&cursors[i]) StreamCursor();

  const int ws_fd = ws.fd();
  const DeployOptions child_options = options;  // copied into every fork
  Supervisor supervisor(tiles, [child_options, tiles, ws_fd](std::uint32_t tile) {
    return tile_main(child_options, tiles, tile, ws_fd);
  });

  const auto fatal = [&](const std::string& why) {
    ctl->stop.store(1, std::memory_order_release);
    return failed(std::move(report), why);
  };

  for (std::uint32_t i = 0; i < tiles; ++i) {
    if (!supervisor.spawn(i, &error)) return fatal(error);
  }

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.timeout_s * 1e9);

  // Boot barrier: every tile attached and resolved its objects.
  for (std::uint32_t ready = 0; ready < tiles;) {
    ready = 0;
    for (std::uint32_t i = 0; i < tiles; ++i) {
      if (ctl->tiles[i].state.load(std::memory_order_acquire) != kBoot) ++ready;
    }
    if (ready == tiles) break;
    if (!supervisor.poll().empty()) return fatal("deploy: a tile died during boot");
    if (now_ns() > deadline) return fatal("deploy: boot timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Arm the first kill watermark before releasing the tiles: workers hold
  // at `hold` committed ops until the SIGKILL owed there has landed, which
  // makes the die: schedule deterministic — a fast run cannot complete
  // inside one supervisor sampling window and skip its kills.
  const std::uint64_t die_every = options.spec.fault.die_every;
  std::uint64_t next_kill = die_every;
  const auto arm_hold = [&](std::uint64_t kills_so_far) {
    const bool armed = die_every != 0 && kills_so_far < options.max_restarts &&
                       next_kill < options.total_ops;
    ctl->hold.store(armed ? next_kill : kNoHold, std::memory_order_release);
  };
  arm_hold(0);
  ctl->go.store(1, std::memory_order_release);

  // Monitor: reap deaths, restart casualties against the persistent
  // workspace, and deliver the die: schedule as real SIGKILLs. Kills are
  // serialized and counted at the *reap*, not the delivery: a kill counts
  // only once its signaled death has been observed, so `kills` can never
  // outrun `restarts`, and a SIGKILL that raced a victim's clean exit
  // (delivered to an already-exiting process, dropped by the kernel)
  // evaporates and the same watermark simply selects another victim.
  std::uint64_t kills = 0, restarts = 0;
  std::uint32_t victim_rotor = 0;
  bool kill_pending = false;
  std::uint32_t pending_victim = 0;
  std::vector<bool> finished(tiles, false);
  while (true) {
    for (const Supervisor::Death& death : supervisor.poll()) {
      if (kill_pending && death.tile == pending_victim) {
        kill_pending = false;
        if (death.signaled) {
          ++kills;
          next_kill += die_every;
          arm_hold(kills);  // release the held workers toward the next mark
        }
        // else: the victim finished before the signal landed — the kill
        // evaporated; fall through to normal death handling either way.
      }
      if (!death.signaled && death.code == 0) {
        finished[death.tile] = true;
        continue;
      }
      // SIGKILL (ours) or a crash: both are process deaths the deployment
      // promises to survive — re-fork against the same workspace.
      if (restarts >= options.max_restarts) {
        return fatal("deploy: restart budget (" + std::to_string(options.max_restarts) +
                     ") exhausted; last death: tile " + std::to_string(death.tile) +
                     (death.signaled ? " signal " : " exit ") + std::to_string(death.code));
      }
      ++restarts;
      if (!supervisor.spawn(death.tile, &error)) return fatal(error);
    }
    if (std::all_of(finished.begin(), finished.end(), [](bool f) { return f; })) break;

    if (die_every != 0 && !kill_pending && kills < options.max_restarts) {
      std::uint64_t committed = 0;
      for (std::uint32_t i = 0; i < total_threads; ++i) {
        committed += cursors[i].committed.load(std::memory_order_acquire);
      }
      if (committed >= next_kill && committed < options.total_ops) {
        // Only a tile that still owes operations qualifies as a victim —
        // its unfinished threads are parked in wait_for_hold (or mid
        // batch), so short of a quota-boundary race the process cannot
        // exit cleanly before the signal lands.
        for (std::uint32_t tried = 0; tried < tiles; ++tried) {
          const std::uint32_t victim = victim_rotor++ % tiles;
          if (finished[victim] || !supervisor.alive(victim)) continue;
          std::uint64_t tile_committed = 0;
          for (std::uint32_t t = 0; t < T; ++t) {
            tile_committed +=
                cursors[victim * T + t].committed.load(std::memory_order_acquire);
          }
          if (tile_committed >= tile_quota[victim]) continue;  // may be exiting
          if (supervisor.kill_tile(victim)) {
            kill_pending = true;
            pending_victim = victim;
          }
          break;
        }
      }
    }
    if (now_ns() > deadline) return fatal("deploy: run timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  report.kills = kills;
  report.restarts = restarts;
  report.issued = plan.issued();

  // Merge the per-tile histories below each stream's committed watermark.
  for (std::uint32_t tile = 0; tile < tiles; ++tile) {
    const auto* hist = static_cast<const OpRecord*>(ws.find(hist_name(tile)));
    const std::vector<std::uint64_t> thread_quota = run::issuer_quotas(tile_quota[tile], T);
    std::uint64_t slice_base = 0;
    for (std::uint32_t t = 0; t < T; ++t) {
      const std::uint32_t gid = tile * T + t;
      const std::uint64_t committed = cursors[gid].committed.load(std::memory_order_acquire);
      for (std::uint64_t k = 0; k < committed; ++k) {
        const OpRecord& rec = hist[slice_base + k];
        lin::Operation op;
        op.start = static_cast<double>(rec.start_ns);
        op.end = static_cast<double>(rec.end_ns);
        op.value = rec.value;
        op.actor = rec.actor;
        report.history.push_back(op);
      }
      slice_base += thread_quota[t];
    }
  }
  report.ops_recorded = report.history.size();
  report.lost_values = report.issued - report.ops_recorded;

  double min_start = 0.0, max_end = 0.0;
  for (std::size_t i = 0; i < report.history.size(); ++i) {
    const lin::Operation& op = report.history[i];
    if (i == 0 || op.start < min_start) min_start = op.start;
    if (i == 0 || op.end > max_end) max_end = op.end;
  }
  report.makespan_ns = max_end - min_start;
  if (report.makespan_ns > 0) {
    report.throughput_ops_s =
        static_cast<double>(report.ops_recorded) / (report.makespan_ns * 1e-9);
  }

  // Checks. The step property comes from the plan's own per-output
  // counters — the ground truth even when a kill lost recorded values.
  const std::uint32_t w = net.output_width();
  std::vector<std::uint64_t> per_output(w);
  for (std::uint32_t p = 0; p < w; ++p) per_output[p] = plan.output_count(p);
  if (kills == 0) {
    report.step_ok = topo::has_step_property(per_output);
  } else {
    // A SIGKILL can vaporize tokens *inside* the network: balancers were
    // toggled but no output counter was ever claimed (such tokens never
    // show up in issued/lost accounting). Each one skews later exits by
    // at most one slot, so the honest claim for a lossy run is the step
    // property up to the in-flight bound — at most `batch` tokens per
    // killed thread — not Def 2.2 verbatim.
    const std::uint64_t step_slack = kills * T * options.batch;
    const auto [mn, mx] = std::minmax_element(per_output.begin(), per_output.end());
    report.step_ok = *mx - *mn <= 1 + step_slack;
  }
  report.analysis = lin::check(report.history);

  if (kills == 0) {
    report.guarantee = DeployReport::Guarantee::kLinearizable;
    report.counting_ok = lin::values_form_range(report.history, &report.counting_message);
    if (report.counting_ok && report.lost_values != 0) {
      report.counting_ok = false;
      report.counting_message = "plan issued " + std::to_string(report.issued) +
                                " tokens but only " + std::to_string(report.ops_recorded) +
                                " were recorded, with no kills to explain the gap";
    }
    if (report.counting_ok) report.counting_message = "values form an exact range";
  } else {
    // Lossy counting: every recorded value must be unique and genuinely
    // claimed from the plan, and the losses must be exactly the tokens a
    // kill could have orphaned (at most batch in flight per thread).
    report.guarantee = DeployReport::Guarantee::kCountingOnlyLossy;
    std::vector<std::uint64_t> values;
    values.reserve(report.history.size());
    for (const lin::Operation& op : report.history) values.push_back(op.value);
    std::sort(values.begin(), values.end());
    bool unique = std::adjacent_find(values.begin(), values.end()) == values.end();
    bool claimed = true;
    for (const std::uint64_t v : values) {
      const std::uint32_t port = static_cast<std::uint32_t>(v % w);
      if (v / w >= per_output[port]) {
        claimed = false;
        break;
      }
    }
    const std::uint64_t loss_bound = kills * T * options.batch;
    report.counting_ok = unique && claimed && report.lost_values <= loss_bound &&
                         report.ops_recorded == options.total_ops;
    if (report.counting_ok) {
      report.counting_message =
          "unique claimed values; " + std::to_string(report.lost_values) +
          " lost to kills (bound " + std::to_string(loss_bound) + ")";
    } else if (!unique) {
      report.counting_message = "duplicate value in the merged history";
    } else if (!claimed) {
      report.counting_message = "history holds a value the plan never issued";
    } else if (report.ops_recorded != options.total_ops) {
      report.counting_message = "recorded " + std::to_string(report.ops_recorded) + " of " +
                                std::to_string(options.total_ops) + " ops";
    } else {
      report.counting_message = std::to_string(report.lost_values) +
                                " values lost exceeds the kill bound " +
                                std::to_string(loss_bound);
    }
  }

  report.ok = report.counting_ok && report.step_ok;
  return report;
}

std::string DeployReport::to_text() const {
  std::string s;
  if (!error.empty()) {
    s += "deploy FAILED: " + error + "\n";
    return s;
  }
  s += "deploy: " + std::to_string(tiles) + " tiles x " + std::to_string(threads_per_tile) +
       " threads\n";
  if (pipelined) {
    s += "  pipeline:   ingress -> counter -> record over ";
    s += per_op_ablation ? "per-op socketpairs" : "shm links";
    s += "; " + std::to_string(dup_requests) + " dup requests dropped\n";
  }
  s += "  guarantee:  ";
  s += guarantee == Guarantee::kLinearizable ? "linearizable-candidate (no kills)"
                                             : "counting-only (lossy; kills occurred)";
  s += "\n";
  s += "  ops:        " + std::to_string(ops_recorded) + " recorded, " +
       std::to_string(issued) + " issued, " + std::to_string(lost_values) + " lost\n";
  s += "  faults:     " + std::to_string(kills) + " SIGKILLs, " + std::to_string(restarts) +
       " restarts\n";
  s += "  counting:   ";
  s += counting_ok ? "OK" : "FAIL";
  s += " (" + counting_message + ")\n";
  s += "  step:       ";
  s += step_ok ? (guarantee == Guarantee::kLinearizable ? "OK" : "OK (loss-relaxed)")
               : "FAIL";
  s += "\n";
  s += "  def2.4:     " + std::to_string(analysis.nonlinearizable_ops) + "/" +
       std::to_string(analysis.total_ops) +
       " non-linearizable (fraction " + std::to_string(analysis.fraction()) +
       ", worst inversion " + std::to_string(analysis.worst_inversion) + ")\n";
  s += "  makespan:   " + std::to_string(makespan_ns * 1e-6) + " ms, " +
       std::to_string(throughput_ops_s * 1e-6) + " Mops/s\n";
  s += ok ? "  verdict:    PASS\n" : "  verdict:    FAIL\n";
  return s;
}

}  // namespace cnet::deploy
