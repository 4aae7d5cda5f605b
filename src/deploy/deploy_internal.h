// Shared guts of the process-tile runners (counter_deploy.cpp,
// pipeline_deploy.cpp): the workspace-resident control block, the
// commit-after-record stream cursors, and the object-naming/clock/option
// helpers both supervisors use. Internal to src/deploy — tests and tools
// stay on the counter_deploy.h surface.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "rt/network_counter.h"
#include "run/backend_spec.h"

namespace cnet::deploy::detail {

inline constexpr std::uint32_t kMaxTiles = 32;
inline constexpr char kPlanObj[] = "rt.plan";
inline constexpr char kCtlObj[] = "deploy.ctl";
inline constexpr char kCursorObj[] = "deploy.cursors";

inline std::string hist_name(std::uint32_t tile) {
  return "tile" + std::to_string(tile) + ".hist";
}

inline std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

enum TileState : std::uint32_t { kBoot = 0, kReady = 1, kDone = 2 };

struct alignas(64) TileSlot {
  std::atomic<std::uint32_t> state{kBoot};
};

/// hold sentinel: no kill pending, workers run free.
inline constexpr std::uint64_t kNoHold = ~0ull;

/// Workspace-resident run control. Written by the supervisor (go/stop/hold)
/// and by every tile (its own slot) — multi-writer by design.
///
/// `hold` makes the die: schedule deterministic instead of best-effort: it
/// is the next kill watermark (in globally committed ops), and workers
/// refuse to issue past it until the supervisor has delivered the SIGKILL
/// and advanced it. Without the rendezvous a fast run can complete inside
/// one supervisor sampling window and a scheduled kill silently never
/// happens (observed on a 1-core box).
struct ControlBlock {
  std::atomic<std::uint32_t> go{0};
  std::atomic<std::uint32_t> stop{0};
  std::atomic<std::uint64_t> hold{kNoHold};
  TileSlot tiles[kMaxTiles];
};

/// One per stream: how many of that stream's operations are fully recorded
/// in its history slice. The commit-after-record discipline makes this the
/// crash-consistency watermark — everything below it is a whole, valid
/// record no matter when the owning tile died.
struct alignas(64) StreamCursor {
  std::atomic<std::uint64_t> committed{0};
};

/// One completed operation in a history slice. Plain (non-atomic) fields:
/// visibility is guarded by the owning StreamCursor's release-store, and
/// only the one owning writer ever touches a slice.
struct OpRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t value = 0;
  std::uint32_t actor = 0;
  std::uint32_t pad_ = 0;
};

inline rt::CounterOptions counter_options(const run::BackendSpec& spec) {
  rt::CounterOptions options;
  options.mode = rt::BalancerMode::kFetchAdd;  // validate_deploy_spec rejected mcs
  options.diffraction = false;
  options.max_threads = spec.max_threads;
  return options;
}

}  // namespace cnet::deploy::detail
