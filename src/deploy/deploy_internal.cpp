#include "deploy/deploy_internal.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <new>
#include <thread>
#include <utility>

#include "deploy/supervisor.h"
#include "lin/checker.h"
#include "topo/validate.h"

namespace cnet::deploy::detail {

namespace {

/// Longest run deadline (about 11.6 days): keeps now + timeout far inside
/// 64-bit nanoseconds.
constexpr double kMaxTimeoutS = 1e6;

std::uint64_t committed_ops(const StreamCursor* cursors, std::uint32_t streams) {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < streams; ++s) {
    total += cursors[s].committed.load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace

bool check_options(const DeployOptions& options, std::uint32_t tiles, std::uint32_t threads,
                   std::string* error) {
  if (!validate_deploy_spec(options.spec, tiles, threads, error)) return false;
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = "deploy: " + why;
    return false;
  };
  if (options.batch == 0 || options.batch > kMaxBatch) {
    return fail("batch must be in [1, " + std::to_string(kMaxBatch) + "] (got " +
                std::to_string(options.batch) + ")");
  }
  // Written so NaN (false on every comparison) and infinity fail too.
  if (!(options.timeout_s > 0.0 && options.timeout_s <= kMaxTimeoutS)) {
    char got[32];
    std::snprintf(got, sizeof(got), "%g", options.timeout_s);
    return fail("timeout_s must be a number of seconds in (0, 1e6] (got " + std::string(got) +
                ")");
  }
  if (options.total_ops < std::uint64_t{tiles} * threads) {
    return fail("total_ops must cover at least one op per stream");
  }
  return true;
}

DeployReport supervise(const DeployOptions& options, Deployment& d, DeployReport report) {
  topo::Network net = options.spec.build_network();
  const auto streams = static_cast<std::uint32_t>(d.streams.size());
  std::uint64_t records = 0;
  for (Stream& stream : d.streams) {
    stream.base = records;
    records += stream.quota;
  }

  // The one workspace: the shared objects, the runner's, then a ring per
  // link, sized with the allocator's own placement rule so every alloc
  // below fits exactly. All of it is laid out before the first fork.
  const std::uint64_t shared[][2] = {  // {align, footprint} per kSharedObjects entry
      {rt::NetworkCounter::state_align(),
       std::max<std::uint64_t>(rt::NetworkCounter::state_footprint(net), 1)},
      {alignof(ControlBlock), sizeof(ControlBlock)},
      {alignof(StreamCursor), std::uint64_t{streams} * sizeof(StreamCursor)},
      {alignof(OpRecord), std::max<std::uint64_t>(records, 1) * sizeof(OpRecord)}};
  static_assert(sizeof(shared) / sizeof(shared[0]) == std::size(kSharedObjects));
  std::vector<Object> objects;
  for (std::size_t i = 0; i < std::size(kSharedObjects); ++i) {
    objects.push_back({kSharedObjects[i], shared[i][0], shared[i][1]});
  }
  objects.insert(objects.end(), d.objects.begin(), d.objects.end());
  std::string error;
  for (const Link& declared : d.links) {
    if (!link::Ring::validate(declared.ring, &error)) {
      return failed(std::move(report), "deploy: link '" + declared.name + "': " + error);
    }
    objects.push_back({declared.name, link::Ring::align(), link::Ring::footprint(declared.ring)});
  }
  std::uint64_t size = 0;
  for (const Object& o : objects) size = shm::align_up(size, o.align) + o.footprint;
  shm::Workspace ws;
  if (!shm::Workspace::create(d.ws, size, &ws, &error)) return failed(std::move(report), error);
  for (const Object& object : objects) {
    if (ws.alloc(object.name, object.align, object.footprint, &error) == nullptr) {
      return failed(std::move(report), error);
    }
  }
  for (const Link& declared : d.links) {
    std::uint64_t footprint = 0;
    void* mem = ws.find(declared.name, &footprint);
    link::Ring ring;
    if (!link::Ring::create(mem, footprint, declared.ring, &ring, &error)) {
      return failed(std::move(report), "deploy: link '" + declared.name + "': " + error);
    }
  }

  // Construct the shared state once, supervisor-side; tiles only attach.
  std::uint64_t plan_footprint = 0;
  void* plan_base = ws.find(kPlanObj, &plan_footprint);
  rt::NetworkCounter counter(std::move(net), options.spec.counter_options(),
                             rt::PlanArena{plan_base, plan_footprint, false});
  auto* ctl = new (ws.find(kCtlObj)) ControlBlock();
  auto* cursors = static_cast<StreamCursor*>(ws.find(kCursorObj));
  for (std::uint32_t s = 0; s < streams; ++s) new (&cursors[s]) StreamCursor();
  const auto* hist = static_cast<const OpRecord*>(ws.find(kHistObj));
  if (d.construct) d.construct(ws);

  const int ws_fd = ws.fd();
  Supervisor supervisor(d.tiles,
                        [&d, ws_fd](std::uint32_t tile) { return d.tile_main(tile, ws_fd); });

  const auto fatal = [&](const std::string& why) {
    ctl->stop.store(1, std::memory_order_release);
    return failed(std::move(report), why);
  };

  for (std::uint32_t i = 0; i < d.tiles; ++i) {
    if (!supervisor.spawn(i, &error)) return fatal(error);
  }

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.timeout_s * 1e9);

  // Boot barrier: every tile attached and resolved its objects.
  for (std::uint32_t ready = 0; ready < d.tiles;) {
    ready = 0;
    for (std::uint32_t i = 0; i < d.tiles; ++i) {
      if (ctl->tiles[i].state.load(std::memory_order_acquire) != kBoot) ++ready;
    }
    if (ready == d.tiles) break;
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
  std::vector<bool> finished(d.tiles, false);
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
    const std::uint64_t committed = committed_ops(cursors, streams);
    // Every operation is durably recorded: release the tiles that only exit
    // on stop (the pipeline's counter) and any held ones.
    if (committed >= options.total_ops) ctl->stop.store(1, std::memory_order_release);
    if (std::all_of(finished.begin(), finished.end(), [](bool f) { return f; })) break;

    if (die_every != 0 && !kill_pending && kills < options.max_restarts &&
        committed >= next_kill && committed < options.total_ops) {
      for (std::uint32_t tried = 0; tried < d.tiles; ++tried) {
        const std::uint32_t victim = victim_rotor++ % d.tiles;
        if (finished[victim] || !supervisor.alive(victim) || !d.may_kill(victim, cursors)) {
          continue;
        }
        if (supervisor.kill_tile(victim)) {
          kill_pending = true;
          pending_victim = victim;
        }
        break;
      }
    }
    if (now_ns() > deadline) return fatal("deploy: run timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  report.kills = kills;
  report.restarts = restarts;
  report.issued = counter.issued();

  // Merge every stream's slice below its committed watermark.
  for (std::uint32_t s = 0; s < streams; ++s) {
    const OpRecord* slice = hist + d.streams[s].base;
    const std::uint64_t committed = cursors[s].committed.load(std::memory_order_acquire);
    for (std::uint64_t k = 0; k < committed; ++k) {
      report.history.push_back(lin::Operation{static_cast<double>(slice[k].start_ns),
                                              static_cast<double>(slice[k].end_ns),
                                              slice[k].value, slice[k].actor});
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
  if (d.collect) {
    const std::string why = d.collect(&report);
    if (!why.empty()) return failed(std::move(report), why);
  }

  // Checks. The step property comes from the counter's own per-output
  // counters — the ground truth even when a kill lost recorded values.
  const std::uint32_t w = counter.output_width();
  std::vector<std::uint64_t> per_output(w);
  for (std::uint32_t p = 0; p < w; ++p) per_output[p] = counter.output_count(p);
  if (kills == 0) {
    report.step_ok = topo::has_step_property(per_output);
  } else {
    // A SIGKILL can vaporize tokens *inside* the network: balancers were
    // toggled but no output counter was ever claimed (such tokens never
    // show up in issued/lost accounting). Each one skews later exits by
    // at most one slot, so the honest claim for a lossy run is the step
    // property up to the in-flight bound the deployment declares per
    // kill — not Def 2.2 verbatim.
    const auto [mn, mx] = std::minmax_element(per_output.begin(), per_output.end());
    report.step_ok = *mx - *mn <= 1 + kills * d.slack_per_kill;
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
    // kill could have orphaned (the deployment's in-flight bound per kill).
    report.guarantee = DeployReport::Guarantee::kCountingOnlyLossy;
    std::vector<std::uint64_t> values;
    values.reserve(report.history.size());
    for (const lin::Operation& op : report.history) values.push_back(op.value);
    std::sort(values.begin(), values.end());
    const bool unique = std::adjacent_find(values.begin(), values.end()) == values.end();
    bool claimed = true;
    for (const std::uint64_t v : values) {
      const std::uint32_t port = static_cast<std::uint32_t>(v % w);
      if (v / w >= per_output[port]) {
        claimed = false;
        break;
      }
    }
    const std::uint64_t loss_bound = kills * d.loss_per_kill;
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

int open_tile(int ws_fd, TileEnv* env) {
  // A tile waits in 50-100 us sleeps (an empty link, link credit, the boot
  // barrier). Under the default 50 us timer slack a 50 us sleep could last
  // 100 us, near the ~115 us of work a 128-frag link holds, so in the
  // pipeline one stage's oversleep stalled the stages feeding it, and its
  // p99 read about 120 or about 180 us from one run to the next
  // (EXPERIMENTS.md, "deploy tiles sleep what they ask"). The tile's
  // threads inherit the slack; the supervisor keeps its own.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::string error;
  if (!shm::Workspace::attach(ws_fd, &env->ws, &error)) return 10;
  env->ctl = static_cast<ControlBlock*>(env->ws.find(kCtlObj));
  env->cursors = static_cast<StreamCursor*>(env->ws.find(kCursorObj));
  env->hist = static_cast<OpRecord*>(env->ws.find(kHistObj));
  return env->ctl == nullptr || env->cursors == nullptr || env->hist == nullptr ? 11 : 0;
}

std::unique_ptr<rt::NetworkCounter> attach_plan(shm::Workspace& ws,
                                                const run::BackendSpec& spec) {
  std::uint64_t footprint = 0;
  void* base = ws.find(kPlanObj, &footprint);
  if (base == nullptr) return nullptr;
  return std::make_unique<rt::NetworkCounter>(spec.build_network(), spec.counter_options(),
                                              rt::PlanArena{base, footprint, /*attach=*/true});
}

bool boot_barrier(ControlBlock* ctl, std::uint32_t tile) {
  ctl->tiles[tile].state.store(kReady, std::memory_order_release);
  while (ctl->go.load(std::memory_order_acquire) == 0) {
    if (ctl->stop.load(std::memory_order_acquire) != 0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

bool wait_for_hold(const ControlBlock* ctl, const StreamCursor* cursors,
                   std::uint32_t streams) {
  while (true) {
    const std::uint64_t hold = ctl->hold.load(std::memory_order_acquire);
    if (hold == kNoHold || committed_ops(cursors, streams) < hold) return true;
    if (ctl->stop.load(std::memory_order_acquire) != 0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace cnet::deploy::detail
