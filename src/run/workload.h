// Workload: the arrival process half of the unified harness. One Workload
// describes *what* traffic to offer — closed-loop threads, open-loop Poisson
// arrivals, periodic bursts, a delayed fraction of issuers (the paper's F/W
// scheme) — independently of *which* backend executes it. The Runner maps
// the description onto each backend's native notion of time:
//
//   rt, mp   real threads, wall-clock nanoseconds
//   psim     simulated processors, cycles (closed loop only — the machine's
//            processors are inherently closed-loop issuers)
//   sim      virtual-time injections in the §2 model's time units
//
// The open-loop arrival schedule is *first-class*: issuer_quotas(),
// issuer_seeds(), and OpenLoopPacer are the one deterministic definition of
// "who sends when", shared by every driver of live traffic. The in-process
// Runner and the over-the-wire cnet_loadgen both derive their per-stream
// seeds and exponential gaps from here, so the same (workload, seed) pair
// offers byte-identical arrival schedules whether the requests are issued
// as function calls or as TCP frames (pinned by tests/run_workload_test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cnet::run {

/// The most OS threads one input may ask for: the Runner's live issuers,
/// mp's `actors=` workers, svc's event loops, a deployment's tiles x
/// threads per tile, and cnet_loadgen's connections. Each refuses a larger
/// value where it validates its input, before any thread starts.
inline constexpr std::uint32_t kMaxOsThreads = 1024;

enum class Arrival : std::uint8_t {
  kClosed,   ///< `threads` issuers, each re-entering as soon as it completes
  kPoisson,  ///< open loop: aggregate-exponential interarrival gaps
  kBurst,    ///< open loop: every `burst_gap`, each issuer fires `burst_size` ops
};

struct Workload {
  Arrival arrival = Arrival::kClosed;

  /// Closed loop: concurrent issuers (psim: processors unless the spec's
  /// `procs` overrides). Open loop on live backends: generator streams —
  /// real threads in the Runner, TCP connections in cnet_loadgen.
  std::uint32_t threads = 4;

  /// Total counting operations across all issuers.
  std::uint64_t total_ops = 10000;

  /// Closed loop on live backends: values claimed per count_batch() call
  /// (1 = one next() per op). History operations of one batch share the
  /// batch call's start/end times.
  std::uint32_t batch = 1;

  /// Poisson: mean aggregate arrival rate, in ops per time unit of the
  /// backend (ops/second on rt and mp, ops/time-unit on sim).
  double rate = 1000.0;

  /// Burst arrivals: ops per issuer per burst, and the gap between bursts
  /// (ns on live backends, time units on sim).
  std::uint32_t burst_size = 1;
  double burst_gap = 1000.0;

  /// The paper's §5 delay injection: round(delayed_fraction * threads)
  /// issuers wait `wait` after every node traversal (psim's
  /// delayed_fraction/wait_cycles; busy-wait ns on rt; extra link time on
  /// sim's closed loop, Bernoulli per token on its open loops; on mp the
  /// token message carries the wait and the hosting worker burns it after
  /// each balancer transition).
  double delayed_fraction = 0.0;
  std::uint64_t wait = 0;

  std::uint64_t seed = 1;

  /// Mean inter-arrival gap of ONE of this workload's `threads` Poisson
  /// streams, in nanoseconds: the aggregate `rate` (ops/s) split evenly, so
  /// each stream paces at rate/threads.
  double mean_gap_ns() const;

  /// One-line summary for reports, e.g. "closed threads=8 ops=10000 seed=1".
  std::string to_string() const;
};

/// Splits `total_ops` across `issuers` the canonical way: total/issuers
/// each, with the remainder going to the lowest-indexed issuers. Both the
/// Runner's threads and cnet_loadgen's connections use this split, so an
/// in-process and an over-the-wire run of the same workload issue the same
/// per-stream operation counts.
std::vector<std::uint64_t> issuer_quotas(std::uint64_t total_ops, std::uint32_t issuers);

/// The canonical per-issuer seed chain: `issuers` seeds drawn from one
/// splitmix64 stream over `seed`. Deterministic; stream i's seed depends
/// only on (seed, i).
std::vector<std::uint64_t> issuer_seeds(std::uint64_t seed, std::uint32_t issuers);

/// One issuer's deterministic open-loop (Poisson) arrival schedule: a
/// stream of absolute arrival times in nanoseconds since the run's t0,
/// produced by accumulating exponential gaps with mean
/// `workload.mean_gap_ns()` from an xoshiro stream seeded by the issuer's
/// issuer_seeds() entry.
///
/// This class IS the open-loop arrival mode: the Runner's issuer threads
/// and cnet_loadgen's connection threads both pace against it, so a given
/// (workload, issuer index) pair yields the same schedule in-process and
/// over the wire.
class OpenLoopPacer {
 public:
  /// `stream_seed` is the issuer's entry of issuer_seeds(workload.seed, n).
  OpenLoopPacer(const Workload& workload, std::uint64_t stream_seed);

  /// Advances the schedule and returns the next absolute arrival (ns from
  /// t0). Strictly increasing.
  double next_arrival_ns();

  /// The whole schedule for a `quota`-op issuer, for analysis and tests.
  std::vector<double> schedule(std::uint64_t quota);

 private:
  Rng rng_;
  double mean_gap_ns_;
  double next_ns_ = 0.0;
};

}  // namespace cnet::run
