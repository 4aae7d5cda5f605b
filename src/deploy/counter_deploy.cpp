#include "deploy/counter_deploy.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "deploy/deploy_internal.h"
#include "run/workload.h"

namespace cnet::deploy {
namespace {

using detail::ControlBlock;
using detail::kMaxTiles;
using detail::now_ns;
using detail::OpRecord;
using detail::StreamCursor;

/// Per-thread worker loop inside a tile: resume from the committed cursor,
/// batch tokens through the shared counter, record-then-commit each value.
void tile_thread(rt::NetworkCounter& counter, ControlBlock* ctl, StreamCursor* cursors,
                 std::uint32_t total_threads, OpRecord* slice, std::uint64_t quota,
                 std::uint32_t gid, std::uint32_t batch) {
  StreamCursor& cursor = cursors[gid];
  const std::uint32_t input = counter.network().issuer_input(gid);
  std::vector<std::uint64_t> values(batch);
  std::uint64_t k = cursor.committed.load(std::memory_order_acquire);
  while (k < quota) {
    if (ctl->stop.load(std::memory_order_acquire) != 0) return;
    if (!detail::wait_for_hold(ctl, cursors, total_threads)) return;
    const auto span = static_cast<std::size_t>(std::min<std::uint64_t>(batch, quota - k));
    const std::uint64_t start = now_ns();
    counter.next_batch(gid, input, std::span<std::uint64_t>(values.data(), span));
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
/// resolve every object by name, adopt the shared counter state, and count —
/// one thread per stream of this tile. Exit codes: 0 done, 10 attach
/// failed, 11 an object is missing.
int tile_main(const DeployOptions& options, const detail::Deployment& d, std::uint32_t tile,
              int ws_fd) {
  detail::TileEnv env;
  if (const int rc = detail::open_tile(ws_fd, &env)) return rc;
  const std::unique_ptr<rt::NetworkCounter> counter = detail::attach_plan(env.ws, options.spec);
  if (counter == nullptr) return 11;
  if (!detail::boot_barrier(env.ctl, tile)) return 0;

  const std::uint32_t T = options.threads_per_tile;
  const auto total_threads = static_cast<std::uint32_t>(d.streams.size());
  std::vector<std::thread> threads;
  threads.reserve(T);
  for (std::uint32_t gid = tile * T; gid < (tile + 1) * T; ++gid) {
    const detail::Stream& stream = d.streams[gid];
    threads.emplace_back(tile_thread, std::ref(*counter), env.ctl, env.cursors, total_threads,
                         env.hist + stream.base, stream.quota, gid, options.batch);
  }
  for (std::thread& th : threads) th.join();
  return 0;
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
  if (spec.degrade != rt::DegradePolicy::kOff) {
    return fail("degrade does not deploy (the guard watches an obs sink, and deploy tiles "
                "keep none)");
  }
  if (spec.metrics) {
    return fail("metrics does not deploy (deploy tiles drive the workspace plan with no "
                "obs sink)");
  }
  if (tiles == 0 || tiles > kMaxTiles) {
    return fail("tiles must be in [1, " + std::to_string(kMaxTiles) + "] (got " +
                std::to_string(tiles) + ")");
  }
  if (threads_per_tile == 0) return fail("threads_per_tile must be >= 1");
  const std::uint64_t total = std::uint64_t{tiles} * threads_per_tile;
  if (total > run::kMaxOsThreads) {
    return fail("tiles x threads_per_tile = " + std::to_string(total) + " exceeds the cap of " +
                std::to_string(run::kMaxOsThreads) + " OS threads");
  }
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
  const std::uint32_t tiles = detail::tile_count(options);
  const std::uint32_t T = options.threads_per_tile;
  report.tiles = tiles;
  report.threads_per_tile = T;
  std::string error;
  if (!detail::check_options(options, tiles, T, &error)) {
    return detail::failed(std::move(report), error);
  }

  // One stream per (tile, thread); tile i runs streams [i*T, (i+1)*T).
  detail::Deployment d(options.spec);
  d.tiles = tiles;
  for (const std::uint64_t tile_quota : run::issuer_quotas(options.total_ops, tiles)) {
    for (const std::uint64_t quota : run::issuer_quotas(tile_quota, T)) {
      d.streams.push_back({quota});
    }
  }
  // A killed tile loses at most the batch each of its threads had claimed
  // but not yet recorded, and those tokens skew the plan's exits at most as
  // much.
  d.loss_per_kill = std::uint64_t{T} * options.batch;
  d.slack_per_kill = d.loss_per_kill;
  d.tile_main = [&options, &d](std::uint32_t tile, int ws_fd) {
    return tile_main(options, d, tile, ws_fd);
  };
  // Only a tile that still owes operations qualifies as a victim — its
  // unfinished threads are parked in wait_for_hold (or mid batch), so short
  // of a quota-boundary race the process cannot exit cleanly before the
  // signal lands.
  d.may_kill = [&d, T](std::uint32_t tile, const StreamCursor* cursors) {
    for (std::uint32_t gid = tile * T; gid < (tile + 1) * T; ++gid) {
      if (cursors[gid].committed.load(std::memory_order_acquire) < d.streams[gid].quota) {
        return true;
      }
    }
    return false;
  };
  return detail::supervise(options, d, std::move(report));
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
    s += "  pipeline:   ingress -> counter -> record over shm links; " +
         std::to_string(dup_requests) + " dup requests dropped\n";
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
