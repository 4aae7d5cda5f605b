// Shared guts of the process-tile runners (counter_deploy.cpp,
// pipeline_deploy.cpp): the workspace-resident control block,
// commit-after-record stream cursors and history slices, the tile-side
// attach/boot/hold helpers, and supervise() — the one
// layout/boot/kill/merge/check path both runners hand their deployment
// to. A runner keeps only what actually differs: its objects and links,
// its tile bodies, a victim filter, and two per-kill bounds. Internal to
// src/deploy — tests and tools stay on the counter_deploy.h surface.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "deploy/counter_deploy.h"
#include "link/ring.h"
#include "rt/network_counter.h"
#include "run/backend_spec.h"
#include "shm/workspace.h"

namespace cnet::deploy::detail {

inline constexpr std::uint32_t kMaxTiles = 32;
/// Largest batch: a pipeline response frag (32-byte header plus 8 bytes
/// per value) must fit one link::kMaxMtu payload; pipeline_deploy.cpp
/// asserts the arithmetic.
inline constexpr std::uint32_t kMaxBatch = 8188;
inline constexpr char kPlanObj[] = "rt.plan";
inline constexpr char kCtlObj[] = "deploy.ctl";
inline constexpr char kCursorObj[] = "deploy.cursors";
inline constexpr char kHistObj[] = "deploy.hist";
/// The objects supervise() places in every workspace, in this order,
/// before the runner's.
inline constexpr const char* kSharedObjects[] = {kPlanObj, kCtlObj, kCursorObj, kHistObj};

inline std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

enum TileState : std::uint32_t { kBoot = 0, kReady = 1 };

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
/// record no matter when the writing tile died.
struct alignas(64) StreamCursor {
  std::atomic<std::uint64_t> committed{0};
};

/// One completed operation in a history slice. Plain (non-atomic) fields:
/// visibility is guarded by the stream's StreamCursor release-store, and
/// only the one writing tile ever touches a slice.
struct OpRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t value = 0;
  std::uint32_t actor = 0;
  std::uint32_t pad_ = 0;
};

/// Worker processes: options.tiles, else spec `tiles=`, else 2.
inline std::uint32_t tile_count(const DeployOptions& options) {
  return options.tiles != 0 ? options.tiles : options.spec.tiles != 0 ? options.spec.tiles : 2;
}

inline DeployReport failed(DeployReport report, const std::string& why) {
  report.ok = false;
  report.error = why;
  return report;
}

/// The option checks both runners share, all before any fork: the spec
/// against `tiles` x `threads` (validate_deploy_spec), batch in
/// [1, kMaxBatch], a timeout in (0, 1e6] seconds, and at least one op per
/// stream.
bool check_options(const DeployOptions& options, std::uint32_t tiles, std::uint32_t threads,
                   std::string* error);

/// One history stream — a (tile, thread) pair in the classic runner, one
/// ingress tile in the pipeline: the ops it records, its slice of
/// kHistObj, and (by index) its StreamCursor in kCursorObj.
struct Stream {
  std::uint64_t quota = 0;  ///< ops the stream records
  std::uint64_t base = 0;   ///< first OpRecord of the slice; set by supervise()
};

/// A runner-owned workspace object.
struct Object {
  std::string name;
  std::uint64_t align = 0;
  std::uint64_t footprint = 0;
};

/// A link::Ring that supervise() formats in a workspace object of the same
/// name; tiles attach it by that name.
struct Link {
  std::string name;
  link::RingOptions ring;  ///< depth, burst, mtu
};

/// What a runner hands supervise(): everything that differs between the
/// classic and pipelined deployments, as data and hooks.
struct Deployment {
  explicit Deployment(const run::BackendSpec& spec)
      : ws(spec.ws.empty() ? "cnet-deploy" : spec.ws) {}

  std::string ws;  ///< workspace name
  /// The runner's own objects and links. supervise() places them after the
  /// shared ones: kPlanObj, kCtlObj, kCursorObj (one cursor per stream)
  /// and kHistObj (every stream's slice).
  std::vector<Object> objects;
  std::vector<Link> links;
  std::uint32_t tiles = 0;  ///< processes to fork, numbered 0..tiles-1
  std::vector<Stream> streams;
  std::uint64_t loss_per_kill = 0;   ///< claimed values one SIGKILL can orphan
  std::uint64_t slack_per_kill = 0;  ///< output skew one SIGKILL can leave in the plan

  /// The forked tile body; its return value is the child's exit status.
  std::function<int(std::uint32_t tile, int ws_fd)> tile_main;
  /// Optional: construct runner-owned objects, supervisor-side, after the
  /// shared state and before any fork.
  std::function<void(shm::Workspace& ws)> construct;
  /// Whether `tile` may take the owed SIGKILL now. A tile that could exit
  /// cleanly before the signal lands must be passed over, or the kill
  /// evaporates.
  std::function<bool(std::uint32_t tile, const StreamCursor* cursors)> may_kill;
  /// Optional: after the merge, fold runner-owned counters into the
  /// report; a non-empty return fails the run with that diagnostic.
  std::function<std::string(DeployReport* report)> collect;
};

/// Lays out the one workspace (the shared objects, the runner's objects
/// and a formatted ring per link), constructs the shared plan and control
/// state, forks every tile behind the boot barrier, supervises the run
/// (restarts, the die: schedule as held, kill-at-reap SIGKILLs, stop once
/// every stream is committed), merges the stream histories below their
/// watermarks, and runs the counting, step and Def 2.4 checks — lossy
/// runs against the deployment's per-kill bounds.
DeployReport supervise(const DeployOptions& options, Deployment& d, DeployReport report);

// -- tile side ----------------------------------------------------------

/// A tile's re-attached view of the workspace and the shared objects.
struct TileEnv {
  shm::Workspace ws;
  ControlBlock* ctl = nullptr;
  StreamCursor* cursors = nullptr;
  OpRecord* hist = nullptr;  ///< kHistObj; a stream's slice starts at its base
};

/// Re-attaches the inherited workspace fd and sets the tile's timer slack
/// to 1 ns, so its short sleeps last what they ask for. Nonzero = tile
/// exit code: 10 attach failed, 11 a shared object is missing.
int open_tile(int ws_fd, TileEnv* env);

/// Adopts the counter state supervise() built in the workspace's kPlanObj;
/// null if missing.
std::unique_ptr<rt::NetworkCounter> attach_plan(shm::Workspace& ws,
                                                const run::BackendSpec& spec);

/// Marks `tile` ready and waits for go; false when the run stops first.
bool boot_barrier(ControlBlock* ctl, std::uint32_t tile);

/// Blocks while the globally committed count sits at/past the supervisor's
/// kill watermark — someone is owed a SIGKILL before anyone proceeds. The
/// sleep matters on small machines: a spinning worker could starve the
/// supervisor off the core that must deliver the kill. Returns false when
/// the run is stopping.
bool wait_for_hold(const ControlBlock* ctl, const StreamCursor* cursors,
                   std::uint32_t streams);

}  // namespace cnet::deploy::detail
