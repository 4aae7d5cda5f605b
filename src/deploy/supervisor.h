// Fork-based tile supervisor: boots worker processes, reaps their deaths,
// kills them on demand, and re-forks them against the same (persistent)
// workspace fds — the mechanism half of process-level fault tolerance.
// Policy (when to kill, when a death is fatal, when to restart) lives with
// the caller: detail::supervise() in deploy/deploy_internal.cpp, the one
// run loop both deployment runners share.
//
// Children are fork-without-exec: the tile entry point runs in the child
// and the child leaves via _exit, so parent-side atexit handlers and
// static destructors never run twice. Workspace fds and MAP_SHARED
// mappings are inherited by fork, which is exactly how tiles reach the
// shared state; restarted tiles re-attach from the inherited fd and
// resolve objects by name (shm/workspace.h).
//
// Fork safety: spawn() must be called from a single-threaded process (the
// supervisor process is the deploy driver, not a tile) — the child calls
// non-async-signal-safe things (mmap, pthread_create) that are only safe
// when no other parent thread could hold runtime locks at fork time.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cnet::deploy {

class Supervisor {
 public:
  /// Runs in the forked child; its return value becomes the child's exit
  /// status. Must not return control to the caller's stack — the
  /// supervisor _exits with the returned status as soon as it returns.
  using TileMain = std::function<int(std::uint32_t tile_index)>;

  Supervisor(std::uint32_t tile_count, TileMain main);
  /// Kills (SIGKILL) and reaps anything still running.
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Forks tile `tile`; false (with diagnostic) if it is already running
  /// or fork() itself failed.
  bool spawn(std::uint32_t tile, std::string* error);

  bool alive(std::uint32_t tile) const;

  /// One reaped child.
  struct Death {
    std::uint32_t tile = 0;
    bool signaled = false;  ///< killed by a signal (vs. exited)
    int code = 0;           ///< signal number or exit status
  };

  /// Reaps every already-dead child without blocking.
  std::vector<Death> poll();

  /// SIGKILLs a running tile. The corpse surfaces via poll() like any
  /// other death; the caller decides whether it was expected.
  bool kill_tile(std::uint32_t tile);

 private:
  std::vector<pid_t> pids_;  ///< -1 = not running
  TileMain main_;
};

}  // namespace cnet::deploy
