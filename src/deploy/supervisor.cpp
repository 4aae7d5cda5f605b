#include "deploy/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

namespace cnet::deploy {

Supervisor::Supervisor(std::uint32_t tile_count, TileMain main)
    : pids_(tile_count, -1), main_(std::move(main)) {}

Supervisor::~Supervisor() {
  for (std::uint32_t tile = 0; tile < pids_.size(); ++tile) {
    if (pids_[tile] > 0) {
      ::kill(pids_[tile], SIGKILL);
      ::waitpid(pids_[tile], nullptr, 0);
      pids_[tile] = -1;
    }
  }
}

bool Supervisor::spawn(std::uint32_t tile, std::string* error) {
  if (tile >= pids_.size() || pids_[tile] > 0) {
    if (error != nullptr) {
      *error = "supervisor: tile " + std::to_string(tile) +
               (tile >= pids_.size() ? " out of range" : " already running");
    }
    return false;
  }
  // The child inherits copies of stdio buffers; flush so buffered parent
  // output is not emitted twice.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (error != nullptr) *error = "supervisor: fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: run the tile and leave without unwinding the parent's stack
    // or running its atexit chain.
    ::_exit(main_(tile));
  }
  pids_[tile] = pid;
  return true;
}

bool Supervisor::alive(std::uint32_t tile) const {
  return tile < pids_.size() && pids_[tile] > 0;
}

std::vector<Supervisor::Death> Supervisor::poll() {
  std::vector<Death> deaths;
  for (std::uint32_t tile = 0; tile < pids_.size(); ++tile) {
    if (pids_[tile] <= 0) continue;
    int status = 0;
    const pid_t reaped = ::waitpid(pids_[tile], &status, WNOHANG);
    if (reaped != pids_[tile]) continue;
    Death death;
    death.tile = tile;
    if (WIFSIGNALED(status)) {
      death.signaled = true;
      death.code = WTERMSIG(status);
    } else {
      death.signaled = false;
      death.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    deaths.push_back(death);
    pids_[tile] = -1;
  }
  return deaths;
}

bool Supervisor::kill_tile(std::uint32_t tile) {
  if (!alive(tile)) return false;
  return ::kill(pids_[tile], SIGKILL) == 0;
}

}  // namespace cnet::deploy
